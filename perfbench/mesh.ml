(* Workload mesh100: a 10x10 grid of complete router stacks (Rtrmgr,
   FEA, RIB, eBGP each) on one simulated clock and one shared netsim
   (Simnet). Set-up boots the grid to convergence; the run then flaps a
   fixed set of links — reset cuts that heal 2 s later — one at a time,
   in a seeded order, and lets the network re-converge after each.

   After every re-convergence the benchmark checks, besides
   Simnet.check_all, that every router forwards every other router's
   prefix along a shortest path: it walks the FIBs hop by hop and
   compares the hop count with a breadth-first search over the
   topology graph. Between flaps, one router originates a probe prefix
   on the quiet network and the benchmark times its arrival in every
   other FIB. *)

open Bench

(* Quiescence detection, as in the convergence bench: counts stable for
   97 samples 0.53 virtual s apart (a ~51 s window, longer than the 4 s
   connect-retry gaps of boot-time session collisions). *)
let step = 0.53
let needed = 97
let max_steps = 600

let probe_prefix = net "198.51.100.0/24"

type inputs = {
  topo : Topology.t;
  flaps : Topology.link array;  (* the round, in seeded order *)
  origins : int array;          (* router index of each probe *)
  owner : (int, int) Hashtbl.t; (* interface address -> router index *)
  adj : int list array;
}

(* Every fourth link of the grid's sorted link list: 45 links spread
   over the centre and the edges. The set is fixed; the seed orders
   it. *)
let generate ~rows ~cols ~topo_seed =
  let topo = Topology.grid rows cols in
  let links = Array.of_list topo.Topology.links in
  let chosen =
    Array.of_list
      (List.filteri (fun i _ -> i mod 4 = 0) (Array.to_list links))
  in
  let rng = Rng.create topo_seed in
  for i = Array.length chosen - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = chosen.(i) in
    chosen.(i) <- chosen.(j);
    chosen.(j) <- t
  done;
  let n = Topology.size topo in
  let idx name = Option.get (Topology.node_index topo name) in
  let owner = Hashtbl.create 512 and adj = Array.make n [] in
  Array.iteri
    (fun li (a, b) ->
       let aa, ba = Topology.link_addrs li in
       Hashtbl.replace owner (Ipv4.to_int aa) (idx a);
       Hashtbl.replace owner (Ipv4.to_int ba) (idx b);
       adj.(idx a) <- idx b :: adj.(idx a);
       adj.(idx b) <- idx a :: adj.(idx b))
    links;
  { topo; flaps = chosen;
    origins = Array.init (Array.length chosen) (fun _ -> Rng.int rng n);
    owner; adj }

(* --- the network ------------------------------------------------------------ *)

let names inp = Array.of_list (List.map (fun nd -> nd.Topology.name) inp.topo.Topology.nodes)

let fib_of w name =
  Option.map Fea.fib (Option.bind (Simnet.mgr w name) Rtrmgr.fea_opt)

let installs w =
  List.fold_left
    (fun acc name ->
       match Option.bind (Simnet.mgr w name) Rtrmgr.fea_opt with
       | Some fea -> acc + Fea.routes_installed fea
       | None -> acc)
    0 (Simnet.router_names w)

(* XRL calls over every router's transports. *)
let xrl_calls () =
  List.fold_left
    (fun acc (name, metric) ->
       match metric with
       | Telemetry.Counter c
         when Filename.extension name = ".calls"
              || String.ends_with ~suffix:".requests_tx" name ->
         acc + Telemetry.counter_value c
       | _ -> acc)
    0 (Telemetry.list_metrics ())

type boot = { w : Simnet.t; spawn_s : float; converge_s : float; boot_virtual : float }

(* Simnet's master seed drives the equal-deadline tie-breaks, and with
   them which of several equally short paths each router picks; it is a
   constant of the workload, so that every run measures the same
   converged network. The input seed orders the flaps and places the
   probes. *)
let simnet_seed = 1

let boot inp =
  let t0 = now () in
  let w = Simnet.spawn { Simnet.default_params with seed = simnet_seed } inp.topo in
  let t1 = now () in
  let ok, last = Simnet.converge ~step ~needed ~max_steps w in
  if not ok then failwith "mesh: the network did not converge at boot";
  { w; spawn_s = t1 -. t0; converge_s = now () -. t1; boot_virtual = last }

(* --- reference check: shortest-path forwarding ------------------------------ *)

let bfs inp src =
  let n = Array.length inp.adj in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
         if dist.(v) < 0 then begin
           dist.(v) <- dist.(u) + 1;
           Queue.push v q
         end)
      inp.adj.(u)
  done;
  dist

let fibs w inp = Array.map (fib_of w) (names inp)

(* Hops from router [src] to the router owning [p], following FIBs;
   [None] on a dead end or a loop. *)
let walk fibs inp src dst p =
  let n = Array.length fibs in
  let rec resolve fib hop nh =
    if hop > 8 then None
    else
      match Fib.lookup fib nh with
      | Some f when f.Fib.protocol = "connected" -> Some nh
      | Some f -> resolve fib (hop + 1) f.Fib.nexthop
      | None -> None
  in
  let rec go x hops =
    if x = dst then Some hops
    else if hops > n then None
    else
      match fibs.(x) with
      | None -> None
      | Some fib -> (
          match Fib.get fib p with
          | None -> None
          | Some e -> (
              match resolve fib 0 e.Fib.nexthop with
              | None -> None
              | Some nh -> (
                  match Hashtbl.find_opt inp.owner (Ipv4.to_int nh) with
                  | Some y when y <> x -> go y (hops + 1)
                  | _ -> None)))
  in
  go src 0

(* Number of (router, origin) pairs whose forwarding walk does not
   reach the origin in exactly the BFS distance. *)
let shortest_path_mismatches w inp =
  let fibs = fibs w inp in
  let n = Array.length fibs in
  let bad = ref 0 in
  for o = 0 to n - 1 do
    let dist = bfs inp o in
    let p = Topology.origin_prefix o in
    for r = 0 to n - 1 do
      if r <> o then
        match walk fibs inp r o p with
        | Some h when h = dist.(r) -> ()
        | _ -> incr bad
    done
  done;
  !bad

(* --- measurement --------------------------------------------------------- *)

type acc = {
  mutable cycle_ms : float list;
  mutable virtual_s : float list;
  mutable scaled_s : float;     (* flap cycles, host-scaled *)
  mutable probe_ms : float list;
  mutable cycles : int;
  mutable probes : int;
  mutable failed : int;
  mutable installs : int;
  mutable xrl : int;
  mutable events : int;
  mutable words : float;
  mutable wall : float;
  mutable rounds : int;
  g : gauge;
}

(* Time one probe prefix from origination at router [o] until every
   other FIB holds it, then withdraw it and wait until it is gone. The
   FIBs are examined after each virtual millisecond. *)
let origination_probe w inp acc o =
  let names = names inp in
  let fibs = fibs w inp in
  let loop = Simnet.eventloop w in
  let count () =
    Array.fold_left
      (fun c fib ->
         match fib with
         | Some fib when Fib.get fib probe_prefix <> None -> c + 1
         | _ -> c)
      0 fibs
  in
  let wait_for target =
    let limit = Eventloop.now loop +. 60. in
    let rec go () =
      if count () = target then true
      else if Eventloop.now loop > limit then false
      else begin
        Eventloop.run_until_time loop (Eventloop.now loop +. 0.001);
        go ()
      end
    in
    go ()
  in
  acc.probes <- acc.probes + 1;
  match Option.bind (Simnet.mgr w names.(o)) Rtrmgr.bgp with
  | None -> acc.failed <- acc.failed + 1
  | Some bgp ->
    restart acc.g;
    let t0 = now () in
    Bgp_process.originate bgp probe_prefix;
    let arrived = wait_for (Array.length names - 1) in
    let dt = now () -. t0 in
    let f = rescale acc.g in
    Bgp_process.withdraw bgp probe_prefix;
    let gone = wait_for 0 in
    if arrived && gone then acc.probe_ms <- (dt *. f *. 1000.) :: acc.probe_ms
    else acc.failed <- acc.failed + 1

(* A probe costs about as much wall time as two flap cycles: withdrawing
   the probe prefix sets off BGP path exploration across the grid. *)
let probe_every = 5

let flap_cycle w inp acc i =
  let loop = Simnet.eventloop w in
  let a, b = inp.flaps.(i) in
  let viol0 = List.length (Simnet.violations w) in
  let v0 = Eventloop.now loop in
  let inst0 = installs w and x0 = xrl_calls () in
  let e0 = Eventloop.events_dispatched loop and w0 = minor_words () in
  restart acc.g;
  let t0 = now () in
  let ok, last =
    span "mesh.flap_cycle" (fun () ->
        Simnet.exec w (Simnet.E_flap (a, b));
        Simnet.converge ~step ~needed ~max_steps w)
  in
  let dt = now () -. t0 in
  let f = rescale acc.g in
  acc.words <- acc.words +. (minor_words () -. w0);
  acc.events <- acc.events + (Eventloop.events_dispatched loop - e0);
  let inst = installs w - inst0 in
  acc.installs <- acc.installs + inst;
  acc.xrl <- acc.xrl + (xrl_calls () - x0);
  acc.wall <- acc.wall +. dt;
  acc.cycles <- acc.cycles + 1;
  acc.cycle_ms <- (dt *. f *. 1000.) :: acc.cycle_ms;
  acc.virtual_s <- Float.max 0. (last -. v0) :: acc.virtual_s;
  acc.scaled_s <- acc.scaled_s +. (dt *. f);
  Simnet.check_all w ~tag:(Printf.sprintf "flap %s-%s" a b);
  let mismatches = shortest_path_mismatches w inp in
  if (not ok) || List.length (Simnet.violations w) > viol0 || mismatches > 0
  then acc.failed <- acc.failed + 1;
  if i mod probe_every = probe_every - 1 then origination_probe w inp acc inp.origins.(i)

let setup_repeats = 3

let run ?(rows = 10) ?(cols = 10) ~topo_seed ~seconds () =
  let setups = ref [] and kept = ref None and g = gauge () in
  for _ = 1 to setup_repeats do
    Option.iter (fun (bt, _) -> Simnet.teardown bt.w) !kept;
    kept := None;
    Gc.compact ();
    restart g;
    let t0 = now () in
    let inp = generate ~rows ~cols ~topo_seed in
    let bt = boot inp in
    let dt = now () -. t0 in
    setups := (dt *. rescale g) :: !setups;
    kept := Some (bt, inp)
  done;
  let bt, inp = Option.get !kept in
  let w = bt.w in
  let acc =
    { cycle_ms = []; virtual_s = []; scaled_s = 0.; probe_ms = [];
      cycles = 0; probes = 0; failed = 0; installs = 0; xrl = 0; events = 0;
      words = 0.; wall = 0.; rounds = 0; g }
  in
  Simnet.check_all w ~tag:"boot";
  if Simnet.violations w <> [] || shortest_path_mismatches w inp > 0 then
    acc.failed <- acc.failed + 1;
  Telemetry.reset ();
  let p0 = probe () in
  while acc.rounds = 0 || now () -. p0.p_wall < seconds do
    Array.iteri (fun i _ -> flap_cycle w inp acc i) inp.flaps;
    acc.rounds <- acc.rounds + 1
  done;
  let d = delta p0 in
  Simnet.teardown w;
  (bt, acc, d, median !setups)
