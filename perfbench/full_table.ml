(* Workload full_table: one router — FEA + RIB + BGP wired through
   intra-process XRLs — on the simulated clock, fed by two injector
   peers over zero-latency netsim links.

   Each cycle has three phases:
   1. peer A streams the whole synthetic feed while peer B flaps single
      test routes (announce, wait for the FIB, withdraw, wait again);
   2. peer B flaps every test prefix on the settled table, in blocks;
   3. peer A withdraws the whole feed while the flaps continue.

   Times are wall-clock medians of many short samples: route rates over
   tenth-of-table windows, and flap latencies from the announce until
   the route is in the FIB. *)

open Bench

let router_addr = addr "10.0.0.1"
let feed_addr = addr "10.0.0.11"
let flap_addr = addr "10.0.0.12"
let lan = net "10.0.0.0/24"
let router_as = 65000
let peer_as = 65100

(* --- inputs ---------------------------------------------------------------- *)

type inputs = {
  feed : Feed.entry array;
  updates : string array;   (* every load UPDATE, encoded *)
  load : string array;      (* the same bytes cut into stream writes *)
  withdraw : string array;
  flap_nets : Ipv4net.t array;
  flap_add : string array;
  flap_del : string array;
}

let flap_pool = 1024

(* Test prefixes live in 240.0.0.0/12, outside the feed's 1-223 space. *)
let flap_net i = Ipv4net.make (Ipv4.of_octets 240 (i / 256) (i mod 256) 0) 24

(* Stream writes of at most 16 KiB: peer A writes one per loop turn, as
   a socket read would hand the router a table dump in pieces. *)
let segment_bytes = 16384

let segments msgs =
  let out = ref [] and buf = Buffer.create segment_bytes in
  Array.iter
    (fun m ->
       if Buffer.length buf + String.length m > segment_bytes then begin
         out := Buffer.contents buf :: !out;
         Buffer.clear buf
       end;
       Buffer.add_string buf m)
    msgs;
  if Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
  Array.of_list (List.rev !out)

let update ?attrs ?(withdrawn = []) nlri =
  Bgp_packet.encode (Bgp_packet.Update { withdrawn; attrs; nlri })

let attrs_of ~nexthop (e : Feed.entry) =
  { (Bgp_types.default_attrs ~nexthop) with
    Bgp_types.aspath = [ Aspath.Seq (peer_as :: e.Feed.as_path) ];
    med = Some e.Feed.med }

(* The feed is packed into UPDATEs of 1 to 11 consecutive routes
   (mean 6) sharing the attributes of the group's first route, as a
   table dump groups prefixes by path. Withdrawals go 800 to a
   message. *)
let generate ~feed_seed =
  let feed = Feed.generate ~seed:feed_seed Feed.paper_table_size in
  let n = Array.length feed in
  let rng = Rng.create (feed_seed + 1) in
  let msgs = ref [] and i = ref 0 in
  while !i < n do
    let g = min (n - !i) (1 + Rng.int rng 11) in
    let nets = List.init g (fun k -> feed.(!i + k).Feed.net) in
    msgs := update ~attrs:(attrs_of ~nexthop:feed_addr feed.(!i)) nets :: !msgs;
    i := !i + g
  done;
  let updates = Array.of_list (List.rev !msgs) in
  let wd = ref [] and i = ref 0 in
  while !i < n do
    let g = min (n - !i) 800 in
    wd := update ~withdrawn:(List.init g (fun k -> feed.(!i + k).Feed.net)) [] :: !wd;
    i := !i + g
  done;
  let flap_nets = Array.init flap_pool flap_net in
  let flap_attrs =
    { (Bgp_types.default_attrs ~nexthop:flap_addr) with
      Bgp_types.aspath = [ Aspath.Seq [ peer_as; 64512 ] ] }
  in
  { feed; updates; load = segments updates;
    withdraw = segments (Array.of_list (List.rev !wd));
    flap_nets;
    flap_add = Array.map (fun p -> update ~attrs:flap_attrs [ p ]) flap_nets;
    flap_del = Array.map (fun p -> update ~withdrawn:[ p ] []) flap_nets }

(* --- the stack under test ------------------------------------------------ *)

type stack = {
  loop : Eventloop.t;
  fea : Fea.t;
  fib : Fib.t;
  rib : Rib.t;
  bgp : Bgp_process.t;
  feed_peer : Injector.t;
  flap_peer : Injector.t;
}

let build () =
  let loop = Eventloop.create ~mode:`Sim () in
  let netsim = Netsim.create ~default_latency:0.0 loop in
  let finder = Finder.create () in
  let fea = Fea.create finder loop () in
  let rib = Rib.create finder loop () in
  (match
     Rib.add_route rib ~protocol:"connected" ~net:lan ~nexthop:Ipv4.zero ()
   with
   | Ok () -> ()
   | Error e -> failwith ("full_table: connected route: " ^ e));
  let bgp =
    Bgp_process.create finder loop ~netsim ~local_as:router_as
      ~bgp_id:router_addr ()
  in
  List.iter
    (fun a ->
       Bgp_process.add_peer bgp
         { (Bgp_process.default_peer_config ~peer_addr:a
              ~local_addr:router_addr ~peer_as)
           with Bgp_process.passive = Some true })
    [ feed_addr; flap_addr ];
  Bgp_process.start bgp;
  let injector a =
    Injector.create ~loop ~netsim ~local_addr:a ~local_as:peer_as
      ~peer_addr:router_addr ~peer_as:router_as
  in
  let feed_peer = injector feed_addr and flap_peer = injector flap_addr in
  let fib = Fea.fib fea in
  let up () =
    Injector.established feed_peer && Injector.established flap_peer
    && Bgp_process.established_count bgp = 2 && Fib.size fib = 1
  in
  if not (run_until ~patience:60. loop up) then
    failwith "full_table: sessions did not come up";
  { loop; fea; fib; rib; bgp; feed_peer; flap_peer }

let teardown s =
  Injector.stop s.feed_peer;
  Injector.stop s.flap_peer;
  Bgp_process.shutdown s.bgp;
  Rib.shutdown s.rib;
  Fea.shutdown s.fea

let settled s ~fib_size =
  Fib.size s.fib = fib_size
  && Bgp_process.inbound_backlog s.bgp = 0
  && Bgp_process.fanout_queue_length s.bgp = 0
  && Rib.fea_queue_length s.rib = 0

(* --- measurement --------------------------------------------------------- *)

type acc = {
  mutable busy_ms : float list;      (* flaps while the feed loads *)
  mutable withdraw_ms : float list;  (* flaps while it is withdrawn *)
  mutable idle_ms : float list;
  mutable load_s : float;      (* bulk phase times, host-scaled *)
  mutable withdraw_s : float;
  mutable bulk_wall : float;   (* bulk phase times, unscaled *)
  mutable flaps : int;
  mutable flaps_failed : int;
  mutable routes : int;        (* loaded + withdrawn *)
  mutable routes_failed : int;
  mutable words : float;       (* minor words over the bulk phases *)
  mutable cycles : int;
  mutable next_flap : int;
  writes : string Queue.t;     (* peer A's unwritten segments *)
  g : gauge;
  mutable pending : float list; (* flap latencies since the last tick *)
  mutable stretch : float;     (* start of the current timed stretch *)
  (* traced run only *)
  mutable backlog_peak : int;
  mutable fea_q_peak : int;
}

let new_acc () =
  { busy_ms = []; withdraw_ms = []; idle_ms = []; load_s = 0.; withdraw_s = 0.; bulk_wall = 0.;
    flaps = 0;
    flaps_failed = 0; routes = 0; routes_failed = 0; words = 0.; cycles = 0;
    next_flap = 0; writes = Queue.create (); g = gauge (); pending = [];
    stretch = 0.; backlog_peak = 0; fea_q_peak = 0 }

(* Flaps between two ticks of the host gauge. *)
let tick_every = 32

(* Close the current stretch at a gauge tick: scale its flap latencies
   (into [into]) and return its scaled duration; the next stretch
   starts after the tick. *)
let close_stretch acc ~into =
  let dt = now () -. acc.stretch in
  let f = rescale acc.g in
  into := List.rev_append (List.rev_map (fun ms -> ms *. f) acc.pending) !into;
  acc.pending <- [];
  acc.stretch <- now ();
  dt *. f

(* Runs after every loop turn: peer A writes its next segment, and the
   traced run samples the queues. *)
let after_turn s acc () =
  if not (Queue.is_empty acc.writes) then
    Injector.send s.feed_peer (Queue.pop acc.writes);
  if !tracing then begin
    acc.backlog_peak <- max acc.backlog_peak (Bgp_process.inbound_backlog s.bgp);
    acc.fea_q_peak <- max acc.fea_q_peak (Rib.fea_queue_length s.rib)
  end

(* One flap: announce a test route from peer B, wait until the FIB holds
   it via B, withdraw it, wait until it has left. Returns the announce
   latency in milliseconds as pending until the next gauge tick. *)
let flap s inp acc =
  let i = acc.next_flap mod flap_pool in
  acc.next_flap <- acc.next_flap + 1;
  acc.flaps <- acc.flaps + 1;
  let each = after_turn s acc in
  let p = inp.flap_nets.(i) in
  let t0 = now () in
  Injector.send s.flap_peer inp.flap_add.(i);
  let installed =
    run_until ~each s.loop (fun () ->
        match Fib.get s.fib p with
        | Some e -> Ipv4.equal e.Fib.nexthop flap_addr
        | None -> false)
  in
  let dt = now () -. t0 in
  Injector.send s.flap_peer inp.flap_del.(i);
  let left = run_until ~each s.loop (fun () -> Fib.get s.fib p = None) in
  if installed && left then acc.pending <- (dt *. 1000.) :: acc.pending
  else acc.flaps_failed <- acc.flaps_failed + 1

(* Loop turns between two flaps of a bulk phase. The loop runs a
   background slice only in a turn with no event pending, and a flap
   is nothing but events, so back-to-back flaps would starve the bulk
   work they are meant to measure against. *)
let flap_gap = 8

(* A bulk phase: write [segs] from peer A, flapping until the stack has
   settled on [target] FIB entries; flap latencies go to [into]. Returns
   the phase's duration, scaled stretch by stretch to the reference
   host. *)
let bulk s inp acc segs ~target ~into =
  let v0 = Eventloop.now s.loop in
  let w0 = minor_words () in
  let total = ref 0. in
  restart acc.g;
  acc.stretch <- now ();
  let t0 = acc.stretch in
  Array.iter (fun seg -> Queue.push seg acc.writes) segs;
  while
    (not (Queue.is_empty acc.writes && settled s ~fib_size:target))
    && Eventloop.now s.loop < v0 +. 60.
  do
    flap s inp acc;
    for _ = 1 to flap_gap do
      ignore (Eventloop.run_once s.loop);
      after_turn s acc ()
    done;
    if acc.flaps mod tick_every = 0 then total := !total +. close_stretch acc ~into
  done;
  acc.bulk_wall <- acc.bulk_wall +. (now () -. t0);
  total := !total +. close_stretch acc ~into;
  acc.words <- acc.words +. (minor_words () -. w0);
  acc.routes <- acc.routes + Array.length inp.feed;
  !total

(* Reference check against the generator: every feed prefix via peer
   A's address, plus the connected LAN route — or, after a withdraw,
   the connected route alone. Each misplaced route is a failed
   operation. *)
let verify s inp ~loaded =
  let bad = ref 0 in
  (match Fib.get s.fib lan with
   | Some e when e.Fib.protocol = "connected" -> ()
   | _ -> incr bad);
  if loaded then begin
    let missing = ref 0 in
    Array.iter
      (fun (e : Feed.entry) ->
         match Fib.get s.fib e.Feed.net with
         | Some f when Ipv4.equal f.Fib.nexthop feed_addr -> ()
         | Some _ -> incr bad
         | None -> incr missing)
      inp.feed;
    let expected = Array.length inp.feed + 1 - !missing in
    bad := !bad + !missing + max 0 (Fib.size s.fib - expected)
  end
  else bad := !bad + max 0 (Fib.size s.fib - 1);
  !bad

(* Idle flaps go through the whole pool of test prefixes, always in the
   same order, so every run times the same set. *)
let idle_flaps = flap_pool
let idle_blocks = 5

let cycle s inp acc =
  let n = Array.length inp.feed in
  let into = ref acc.busy_ms in
  acc.load_s <- acc.load_s +. bulk s inp acc inp.load ~target:(n + 1) ~into;
  acc.busy_ms <- !into;
  acc.routes_failed <- acc.routes_failed + verify s inp ~loaded:true;
  (* Settled means the heap too: the load leaves the major GC a cycle's
     debt, which the first idle flaps would otherwise pay in slices. A
     block of idle flaps lasts some 40 ms, one state of a drifting
     host, so the settled table is timed in several blocks, each after
     a full major collection. *)
  for _ = 1 to idle_blocks do
    Gc.full_major ();
    let into = ref acc.idle_ms in
    acc.next_flap <- 0;
    restart acc.g;
    acc.stretch <- now ();
    for i = 1 to idle_flaps do
      flap s inp acc;
      if i mod tick_every = 0 then ignore (close_stretch acc ~into)
    done;
    ignore (close_stretch acc ~into);
    acc.idle_ms <- !into
  done;
  let into = ref acc.withdraw_ms in
  acc.withdraw_s <- acc.withdraw_s +. bulk s inp acc inp.withdraw ~target:1 ~into;
  acc.withdraw_ms <- !into;
  acc.routes_failed <- acc.routes_failed + verify s inp ~loaded:false;
  acc.cycles <- acc.cycles + 1

(* --- the run ----------------------------------------------------------------- *)

let setup_repeats = 3

type outcome = {
  acc : acc;
  inp : inputs;
  setup_s : float;
  d : delta;     (* over the measured cycles *)
  events : int;
  xrl : int;     (* intra-process XRL calls *)
}

let run ~feed_seed ~seconds =
  let setups = ref [] and kept = ref None and g = gauge () in
  for _ = 1 to setup_repeats do
    Option.iter (fun (s, _) -> teardown s) !kept;
    kept := None;
    Gc.compact ();
    restart g;
    let t0 = now () in
    let inp = generate ~feed_seed in
    let s = build () in
    let dt = now () -. t0 in
    setups := (dt *. rescale g) :: !setups;
    kept := Some (s, inp)
  done;
  let s, inp = Option.get !kept in
  let acc = new_acc () in
  Telemetry.reset ();
  let e0 = Eventloop.events_dispatched s.loop in
  let x0 = counter "xrl.intra.calls" in
  let p0 = probe () in
  while acc.cycles = 0 || now () -. p0.p_wall < seconds do
    span "full_table.cycle" (fun () -> cycle s inp acc)
  done;
  let d = delta p0 in
  let events = Eventloop.events_dispatched s.loop - e0 in
  let xrl = counter "xrl.intra.calls" - x0 in
  teardown s;
  { acc; inp; setup_s = median !setups; d; events; xrl }
