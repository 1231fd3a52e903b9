(* Workload forward: an FEA holding the full synthetic table in its FIB,
   with the default element graph (Classify -> CheckHeader -> LpmLookup
   -> DecTtl -> Queue -> Scheduler -> ToNetsim). One sender sends
   bursts of minimum-size packets into eth0; a receiver bound on every
   nexthop counts what leaves eth1. BGP, the RIB and XRL are not on this
   path.

   The packet mix cycles through the feed's prefixes (a random host in
   each, in a seeded order); a fixed share is unroutable and another
   arrives with TTL 1. A reference longest-prefix match built from
   per-length hash tables — not Ptree — predicts where each packet
   goes. *)

open Bench

let dut_in = addr "10.100.0.1"
let dut_out = addr "10.101.0.1"
let sender_addr = addr "10.100.0.99"

(* --- reference longest-prefix match ------------------------------------ *)

(* One hash table per prefix length, probed from /32 down. *)
type reference = (int, Ipv4.t) Hashtbl.t array

let reference (feed : Feed.entry array) : reference =
  let tbl = Array.init 33 (fun _ -> Hashtbl.create 1024) in
  Array.iter
    (fun (e : Feed.entry) ->
       let p = e.Feed.net in
       Hashtbl.replace tbl.(Ipv4net.prefix_len p)
         (Ipv4.to_int (Ipv4net.network p)) e.Feed.nexthop)
    feed;
  tbl

let ref_lookup (r : reference) a =
  let a = Ipv4.to_int a in
  let rec go len =
    if len < 0 then None
    else
      let mask = if len = 0 then 0 else (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF in
      match Hashtbl.find_opt r.(len) (a land mask) with
      | Some nh -> Some nh
      | None -> go (len - 1)
  in
  go 32

(* --- inputs ---------------------------------------------------------------- *)

(* What the reference predicts for one packet. *)
type fate = To of int (* receiver index *) | No_route | Ttl_expired

type inputs = {
  feed : Feed.entry array;
  nexthops : Ipv4.t array;
  wire : string array;  (* the packet mix, encoded *)
  dsts : Ipv4.t array;
  fates : fate array;
}

let mix_size = 65536
let unroutable_pct = 5
let ttl1_pct = 5

let random_host rng p =
  let len = Ipv4net.prefix_len p in
  let host = if len >= 32 then 0 else Rng.int rng (1 lsl (32 - len)) in
  Ipv4.of_int (Ipv4.to_int (Ipv4net.network p) lor host)

let generate ~feed_seed ~mix_seed =
  let feed = Feed.generate ~seed:feed_seed Feed.paper_table_size in
  let r = reference feed in
  let nexthops = Array.of_list (Feed.nexthops feed) in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i a -> Hashtbl.replace index (Ipv4.to_int a) i) nexthops;
  let rng = Rng.create mix_seed in
  let n = Array.length feed in
  (* A seeded permutation of the feed: destinations cycle through it. *)
  let order = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let rec unroutable () =
    let a = Ipv4.of_octets (1 + Rng.int rng 223) (Rng.int rng 256)
        (Rng.int rng 256) (1 + Rng.int rng 254) in
    if ref_lookup r a = None then a else unroutable ()
  in
  let dsts = Array.make mix_size Ipv4.zero and ttls = Array.make mix_size 64 in
  for i = 0 to mix_size - 1 do
    let roll = Rng.int rng 100 in
    if roll < unroutable_pct then dsts.(i) <- unroutable ()
    else begin
      dsts.(i) <- random_host rng feed.(order.(i mod n)).Feed.net;
      if roll < unroutable_pct + ttl1_pct then ttls.(i) <- 1
    end
  done;
  let fates =
    Array.mapi
      (fun i d ->
         match ref_lookup r d with
         | None -> No_route
         | Some _ when ttls.(i) = 1 -> Ttl_expired
         | Some nh -> To (Hashtbl.find index (Ipv4.to_int nh)))
      dsts
  in
  let wire =
    Array.mapi
      (fun i d -> Packet.to_wire (Packet.make ~ttl:ttls.(i) ~src:sender_addr ~dst:d ()))
      dsts
  in
  { feed; nexthops; wire; dsts; fates }

(* --- the router under test ------------------------------------------------ *)

type stack = {
  loop : Eventloop.t;
  fea : Fea.t;
  dp : Dataplane.t;
  sender : Netsim.Dgram.socket;
  received : int array;      (* per receiver *)
  mutable bad_ttl : int;     (* deliveries whose TTL was not decremented *)
  mutable delivered_at : float;
}

let build inp =
  let loop = Eventloop.create ~mode:`Sim () in
  let netsim = Netsim.create loop in
  let finder = Finder.create () in
  let fea =
    Fea.create ~interfaces:[ ("eth0", dut_in); ("eth1", dut_out) ] ~netsim
      finder loop ()
  in
  let dp =
    match Fea.dataplane fea with
    | Some dp -> dp
    | None -> failwith "forward: FEA came up without a data plane"
  in
  let fib = Fea.fib fea in
  Array.iter
    (fun (e : Feed.entry) ->
       Fib.add fib
         { Fib.net = e.Feed.net; nexthop = e.Feed.nexthop; ifname = "eth1";
           protocol = "bgp" })
    inp.feed;
  let s =
    { loop; fea; dp; received = Array.make (Array.length inp.nexthops) 0;
      sender = Netsim.Dgram.bind netsim ~addr:sender_addr ~port:Fea.dataplane_port;
      bad_ttl = 0; delivered_at = 0. }
  in
  Array.iteri
    (fun i nh ->
       let sock = Netsim.Dgram.bind netsim ~addr:nh ~port:Fea.dataplane_port in
       Netsim.Dgram.on_receive sock (fun ~src:_ ~sport:_ payload ->
           s.received.(i) <- s.received.(i) + 1;
           (* Every forwarded packet left with TTL 64 - 1. *)
           if Char.code payload.[2] <> 63 then s.bad_ttl <- s.bad_ttl + 1;
           s.delivered_at <- now ()))
    inp.nexthops;
  s

let drops s =
  List.fold_left
    (fun (nr, ttl) (st : Dataplane.stats) ->
       List.fold_left
         (fun (nr, ttl) (reason, n) ->
            match reason with
            | "no-route" -> (nr + n, ttl)
            | "ttl-expired" -> (nr, ttl + n)
            | _ -> (nr, ttl))
         (nr, ttl) st.Dataplane.st_drops)
    (0, 0) (Dataplane.stats s.dp)

(* --- measurement --------------------------------------------------------- *)

let batch = 256     (* packets written before the loop runs; < Queue(512) *)
let burst = 32      (* batches per burst *)
let probes = 16     (* single packets timed on the idle router per burst *)

type acc = {
  mutable pps : float list;
  mutable batch_ms : float list;
  mutable idle_ms : float list;
  mutable packets : int;
  mutable failed : int;
  mutable words : float;
  mutable events : int;
  mutable bursts : int;
  mutable cursor : int;
  mutable wall : float;      (* inside bursts *)
  g : gauge;
}

let send s inp i =
  Netsim.Dgram.sendto s.sender ~dst:dut_in ~dport:Fea.dataplane_port
    inp.wire.(i mod mix_size)

(* One burst of [burst * batch] packets from the cursor, then a check of
   every receiver's count and every drop reason against the
   reference. *)
let one_burst s inp acc =
  let n = burst * batch in
  let first = acc.cursor in
  let got0 = Array.copy s.received and nr0, ttl0 = drops s in
  let bad0 = s.bad_ttl in
  let e0 = Eventloop.events_dispatched s.loop in
  let w0 = minor_words () in
  let batches = ref [] and idle = ref [] in
  restart acc.g;
  let t0 = now () in
  for b = 0 to burst - 1 do
    let tb = now () in
    for k = 0 to batch - 1 do
      send s inp (first + (b * batch) + k)
    done;
    Eventloop.run s.loop;
    batches := ((now () -. tb) *. 1000.) :: !batches
  done;
  let dt = now () -. t0 in
  acc.words <- acc.words +. (minor_words () -. w0);
  acc.events <- acc.events + (Eventloop.events_dispatched s.loop - e0);
  acc.cursor <- first + n;
  acc.packets <- acc.packets + n;
  (* Reference check. *)
  let want = Array.make (Array.length s.received) 0 in
  let want_nr = ref 0 and want_ttl = ref 0 in
  for i = first to first + n - 1 do
    match inp.fates.(i mod mix_size) with
    | To r -> want.(r) <- want.(r) + 1
    | No_route -> incr want_nr
    | Ttl_expired -> incr want_ttl
  done;
  let nr, ttl = drops s in
  let off = ref (s.bad_ttl - bad0) in
  Array.iteri
    (fun r w -> off := !off + abs (s.received.(r) - got0.(r) - w))
    want;
  off := !off + abs (nr - nr0 - !want_nr) + abs (ttl - ttl0 - !want_ttl);
  acc.failed <- acc.failed + min n !off;
  (* Single packets through the idle router: routable ones only. *)
  let i = ref acc.cursor and timed = ref 0 in
  while !timed < probes do
    (match inp.fates.(!i mod mix_size) with
     | To r ->
       let before = s.received.(r) in
       let t = now () in
       send s inp !i;
       Eventloop.run s.loop;
       if s.received.(r) = before + 1 then
         idle := ((s.delivered_at -. t) *. 1000.) :: !idle
       else acc.failed <- acc.failed + 1;
       acc.packets <- acc.packets + 1;
       incr timed
     | No_route | Ttl_expired -> ());
    incr i
  done;
  (* The burst and its probes are one stretch of the host gauge. *)
  let f = rescale acc.g in
  acc.wall <- acc.wall +. dt;
  acc.pps <- (float_of_int n /. (dt *. f)) :: acc.pps;
  acc.batch_ms <- List.rev_append (List.rev_map (fun x -> x *. f) !batches) acc.batch_ms;
  acc.idle_ms <- List.rev_append (List.rev_map (fun x -> x *. f) !idle) acc.idle_ms;
  acc.bursts <- acc.bursts + 1

let setup_repeats = 3

let run ~feed_seed ~mix_seed ~seconds =
  let setups = ref [] and kept = ref None and g = gauge () in
  for _ = 1 to setup_repeats do
    Option.iter (fun (s, _) -> Fea.shutdown s.fea) !kept;
    kept := None;
    Gc.compact ();
    restart g;
    let t0 = now () in
    let inp = generate ~feed_seed ~mix_seed in
    let s = build inp in
    let dt = now () -. t0 in
    setups := (dt *. rescale g) :: !setups;
    kept := Some (s, inp)
  done;
  let s, inp = Option.get !kept in
  let acc =
    { pps = []; batch_ms = []; idle_ms = []; packets = 0; failed = 0;
      words = 0.; events = 0; bursts = 0; cursor = 0; wall = 0.; g }
  in
  Telemetry.reset ();
  let p0 = probe () in
  while acc.bursts = 0 || now () -. p0.p_wall < seconds do
    span "forward.burst" (fun () -> one_burst s inp acc)
  done;
  let d = delta p0 in
  Fea.shutdown s.fea;
  (acc, d, median !setups)
