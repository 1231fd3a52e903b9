(* The benchmark's main program: runs one workload for a given time, checks its
   outputs against references the benchmark computes itself, and prints
   the metrics — end-to-end ones, or with --trace 1 the per-layer
   ledger — as the last line of standard output, in JSON.

     perfbench.exe --workload full_table|forward|mesh100 --seed N
                   --seconds S --trace 0|1
                   [--feed-seed N] [--mix-seed N] [--topo-seed N]

   The three input seeds default to values derived from --seed. *)

open Bench

let pf = Printf.printf

(* --- seeds ------------------------------------------------------------------- *)

type seeds = { feed_seed : int; mix_seed : int; topo_seed : int }

let derive seed =
  { feed_seed = seed; mix_seed = (seed * 7919) + 1; topo_seed = (seed * 104729) + 2 }

(* --- end-to-end metrics -------------------------------------------------------- *)

(* Every workload reports the same six metrics; what a unit of work
   is depends on the workload (see README.md). The median latency comes
   from [busy_p50], the tail from [busy], where a workload needs them
   to differ. *)
let e2e ~setup_s ~throughput ?busy_p50 ~busy ~words_per_op () =
  [ m "setup_s" "s" setup_s;
    m "throughput_per_s" "1/s" throughput;
    m "latency_p50_ms" "ms" (median (Option.value busy_p50 ~default:busy));
    m "latency_p90_ms" "ms" (quantile busy 0.9);
    m "words_per_op" "words" words_per_op;
    m "heap_peak_mb" "MB" (heap_peak_mb ()) ]

let own_layer ~ops (d : delta) ~events ~unattributed_pct =
  [ m "eventloop.events_per_op" "events" (float_of_int events /. ops);
    m "gc.promoted_words_per_op" "words" (d.promoted /. ops);
    m "gc.major_collections" "count" (float_of_int d.majors);
    m "ledger.unattributed_pct" "%" unattributed_pct ]

let pct_left ~wall ~attributed = 100. *. (wall -. attributed) /. wall

(* --- full_table ------------------------------------------------------------------ *)

let ft_layer (o : Full_table.outcome) replays =
  let a = o.Full_table.acc and inp = o.Full_table.inp in
  let n = float_of_int (Array.length inp.Full_table.feed) in
  let ops = float_of_int (max 1 (Ledger.bgp_route_ops ())) in
  let cycles = float_of_int a.Full_table.cycles in
  let v name = Ledger.value name replays in
  (* Decode and FIB work are priced from the replays: UPDATEs received
     (load, withdraw, two per flap) and one FIB add and delete per
     route per cycle. *)
  let updates =
    (cycles
     *. float_of_int
       (Array.length inp.Full_table.updates
        + ((Array.length inp.Full_table.feed + 799) / 800)))
    +. (2. *. float_of_int a.Full_table.flaps)
  in
  let attributed =
    Ledger.stage_total_s ()
    +. (updates *. v "bgp_packet.decode_us_per_update" /. 1e6)
    +. (cycles *. n *. (v "fib.add_ns" +. v "fib.delete_ns") /. 1e9)
  in
  Ledger.stage_metrics ()
  @ [ m "bgp.inbound_backlog_peak" "ops" (float_of_int a.Full_table.backlog_peak);
      m "rib.fea_q_peak" "routes" (float_of_int a.Full_table.fea_q_peak);
      m "xrl.calls_per_route" "calls" (float_of_int o.Full_table.xrl /. ops) ]
  @ own_layer ~ops:(float_of_int a.Full_table.routes) o.Full_table.d
    ~events:o.Full_table.events
    ~unattributed_pct:(pct_left ~wall:a.Full_table.bulk_wall ~attributed)

let full_table seeds ~seconds =
  let o = Full_table.run ~feed_seed:seeds.feed_seed ~seconds in
  let a = o.Full_table.acc in
  let routes = float_of_int a.Full_table.routes in
  let results =
    e2e ~setup_s:o.Full_table.setup_s
      ~throughput:(routes /. (a.Full_table.load_s +. a.Full_table.withdraw_s))
      (* The median busy flap overall is a withdraw-phase flap on the
         urgent lane, tens of microseconds whose level moves by 30%
         from one process to the next; the load-phase flaps, queued
         behind the router's synchronous UPDATE processing, give the
         median. The tail is over every busy flap. *)
      ~busy_p50:a.Full_table.busy_ms
      ~busy:(a.Full_table.busy_ms @ a.Full_table.withdraw_ms)
      ~words_per_op:(a.Full_table.words /. routes) ()
  in
  let notes =
    [ Printf.sprintf "load_routes_per_s %.0f withdraw_routes_per_s %.0f"
        (routes /. 2. /. a.Full_table.load_s) (routes /. 2. /. a.Full_table.withdraw_s);
      Printf.sprintf "flap_busy_p50_ms %.4f flap_busy_p90_ms %.4f (%d flaps while loading)"
        (median a.Full_table.busy_ms) (quantile a.Full_table.busy_ms 0.9)
        (List.length a.Full_table.busy_ms);
      Printf.sprintf "withdraw-phase flaps p50 %.4f ms, p90 %.4f ms (%d flaps)"
        (median a.Full_table.withdraw_ms) (quantile a.Full_table.withdraw_ms 0.9)
        (List.length a.Full_table.withdraw_ms);
      Printf.sprintf "flap_idle_p50_ms %.4f (p10 %.4f, p90 %.4f; %d flaps)"
        (median a.Full_table.idle_ms) (quantile a.Full_table.idle_ms 0.1)
        (quantile a.Full_table.idle_ms 0.9) (List.length a.Full_table.idle_ms);
      Printf.sprintf "words_per_route %.1f" (a.Full_table.words /. routes);
      Printf.sprintf "table %d routes in %d UPDATEs (%d load bytes), %d cycles"
        (Array.length o.Full_table.inp.Full_table.feed)
        (Array.length o.Full_table.inp.Full_table.updates)
        (Array.fold_left (fun s x -> s + String.length x) 0
           o.Full_table.inp.Full_table.load)
        a.Full_table.cycles ]
  in
  let counts =
    [ ("routes loaded", a.Full_table.routes / 2);
      ("routes withdrawn", a.Full_table.routes / 2);
      ("flaps", a.Full_table.flaps);
      ("misplaced routes", a.Full_table.routes_failed);
      ("failed flaps", a.Full_table.flaps_failed) ]
  in
  ( { attempted = a.Full_table.routes + a.Full_table.flaps;
      failed = a.Full_table.routes_failed + a.Full_table.flaps_failed;
      e2e = results; layer = []; counts; notes },
    o )

(* --- forward ------------------------------------------------------------------------ *)

let forward seeds ~seconds =
  let a, d, setup_s =
    Forward.run ~feed_seed:seeds.feed_seed ~mix_seed:seeds.mix_seed ~seconds
  in
  let burst_packets = float_of_int (a.Forward.bursts * Forward.burst * Forward.batch) in
  let results =
    e2e ~setup_s ~throughput:(median a.Forward.pps) ~busy:a.Forward.batch_ms
      ~words_per_op:(a.Forward.words /. burst_packets) ()
  in
  let notes =
    [ Printf.sprintf "forward_pps %.0f (median of %d bursts of %d packets)"
        (median a.Forward.pps) a.Forward.bursts (Forward.burst * Forward.batch);
      Printf.sprintf "words_per_packet %.2f" (a.Forward.words /. burst_packets);
      Printf.sprintf "batch of %d: p50 %.4f ms, p90 %.4f ms; idle packet p50 %.4f ms"
        Forward.batch (median a.Forward.batch_ms) (quantile a.Forward.batch_ms 0.9)
        (median a.Forward.idle_ms) ]
  in
  let counts =
    [ ("packets", a.Forward.packets); ("bursts", a.Forward.bursts);
      ("mispredicted packets", a.Forward.failed) ]
  in
  ( { attempted = a.Forward.packets; failed = a.Forward.failed; e2e = results;
      layer = []; counts; notes },
    (a, d, burst_packets) )

let fw_layer (a, (d : delta), burst_packets) replays =
  let v name = Ledger.value name replays in
  let attributed =
    burst_packets
    *. (v "dataplane.graph_ns_per_packet" +. (2. *. v "netsim.dgram_ns_per_packet"))
    /. 1e9
  in
  own_layer ~ops:burst_packets d ~events:a.Forward.events
    ~unattributed_pct:(pct_left ~wall:a.Forward.wall ~attributed)

(* --- mesh100 ---------------------------------------------------------------------- *)

let mesh ?rows ?cols seeds ~seconds =
  let bt, a, d, setup_s = Mesh.run ?rows ?cols ~topo_seed:seeds.topo_seed ~seconds () in
  let installs = float_of_int (max 1 a.Mesh.installs) in
  let results =
    e2e ~setup_s ~throughput:(installs /. a.Mesh.scaled_s) ~busy:a.Mesh.cycle_ms
      ~words_per_op:(a.Mesh.words /. installs) ()
  in
  let cycles = float_of_int a.Mesh.cycles in
  let routers = float_of_int (Simnet.size bt.Mesh.w) in
  let notes =
    [ Printf.sprintf "reconverge_s %.2f virtual (median of %d flaps)"
        (median a.Mesh.virtual_s) a.Mesh.cycles;
      Printf.sprintf "reconverge_wall_ms %.2f p90 %.2f"
        (median a.Mesh.cycle_ms) (quantile a.Mesh.cycle_ms 0.9);
      Printf.sprintf "probe prefix to every FIB: p50 %.2f ms (%d probes)"
        (median a.Mesh.probe_ms) (List.length a.Mesh.probe_ms);
      Printf.sprintf "boot: spawn %.2f s, converge %.2f s wall, %.2f s virtual"
        bt.Mesh.spawn_s bt.Mesh.converge_s bt.Mesh.boot_virtual;
      Printf.sprintf "FIB installs %d (%.0f per flap), XRL calls %.0f per flap"
        a.Mesh.installs (installs /. cycles) (float_of_int a.Mesh.xrl /. cycles) ]
  in
  let counts =
    [ ("flap cycles", a.Mesh.cycles); ("probes", a.Mesh.probes);
      ("boot checks", 1); ("failed", a.Mesh.failed) ]
  in
  let home =
    [ m "simnet.spawn_ms_per_router" "ms" (bt.Mesh.spawn_s *. 1000. /. routers);
      m "simnet.boot_converge_ms" "ms" (bt.Mesh.converge_s *. 1000.);
      m "xrl.calls_per_flap" "calls" (float_of_int a.Mesh.xrl /. cycles);
      m "fea.installs_per_flap" "routes" (installs /. cycles) ]
  in
  ( { attempted = a.Mesh.cycles + a.Mesh.probes + 1; failed = a.Mesh.failed;
      e2e = results; layer = []; counts; notes },
    (home, a, d, installs) )

let mesh_layer (home, a, (d : delta), installs) =
  let attributed = Ledger.stage_total_s () in
  home
  @ own_layer ~ops:installs d ~events:a.Mesh.events
      ~unattributed_pct:(pct_left ~wall:a.Mesh.wall ~attributed)

(* --- the traced run ------------------------------------------------------------- *)

(* A traced run reports the whole ledger. Layers the workload exercises
   itself come from its own run; the others come from the workload that
   exercises them, run small: one full_table cycle, a 3x3 mesh. The
   replays of single layers run in every traced run. *)
let traced workload seeds ~seconds =
  tracing := true;
  let own, layer =
    match workload with
    | "full_table" ->
      let r, o = full_table seeds ~seconds in
      let replays = Ledger.replays ~feed_seed:seeds.feed_seed ~mix_seed:seeds.mix_seed in
      let layer = ft_layer o replays in
      let _, (home, _, _, _) = mesh ~rows:3 ~cols:3 seeds ~seconds:0. in
      (r, layer @ replays @ home)
    | "forward" ->
      let r, x = forward seeds ~seconds in
      let replays = Ledger.replays ~feed_seed:seeds.feed_seed ~mix_seed:seeds.mix_seed in
      let layer = fw_layer x replays in
      let _, o = full_table seeds ~seconds:0. in
      let ft = ft_layer o replays in
      let keep = List.filter (fun x -> not (List.exists (fun y -> y.name = x.name) layer)) ft in
      let _, (home, _, _, _) = mesh ~rows:3 ~cols:3 seeds ~seconds:0. in
      (r, layer @ keep @ replays @ home)
    | _ ->
      let r, x = mesh seeds ~seconds in
      let layer = mesh_layer x in
      let replays = Ledger.replays ~feed_seed:seeds.feed_seed ~mix_seed:seeds.mix_seed in
      let _, o = full_table seeds ~seconds:0. in
      let ft = ft_layer o replays in
      let keep = List.filter (fun x -> not (List.exists (fun y -> y.name = x.name) layer)) ft in
      (r, layer @ keep @ replays)
  in
  { own with layer }

(* --- output ---------------------------------------------------------------------- *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x ->
          if not (Float.is_finite x.value) then
            failwith (Printf.sprintf "metric %s is not a finite number" x.name);
          Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let feed_seed = ref None and mix_seed = ref None and topo_seed = ref None in
  let some r = Arg.Int (fun v -> r := Some v) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " full_table | forward | mesh100");
      ("--seed", Arg.Set_int seed, " master seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1: report the per-layer ledger");
      ("--feed-seed", some feed_seed, " route feed seed");
      ("--mix-seed", some mix_seed, " packet mix seed");
      ("--topo-seed", some topo_seed, " simnet and flap-order seed") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let d = derive !seed in
  let pick r dflt = Option.value !r ~default:dflt in
  let seeds =
    { feed_seed = pick feed_seed d.feed_seed; mix_seed = pick mix_seed d.mix_seed;
      topo_seed = pick topo_seed d.topo_seed }
  in
  if not (List.mem !workload [ "full_table"; "forward"; "mesh100" ]) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  pf "workload %s, seed %d (feed %d, mix %d, topo %d), %.0f s, trace %d, OCaml %s\n%!"
    !workload !seed seeds.feed_seed seeds.mix_seed seeds.topo_seed !seconds !trace
    Sys.ocaml_version;
  let r =
    if !trace = 1 then traced !workload seeds ~seconds:!seconds
    else
      match !workload with
      | "full_table" -> fst (full_table seeds ~seconds:!seconds)
      | "forward" -> fst (forward seeds ~seconds:!seconds)
      | _ -> fst (mesh seeds ~seconds:!seconds)
  in
  pf "  host gauge: median %.3f ns/step over %d ticks (reference %.1f)\n"
    (median !tick_log) (List.length !tick_log) reference_ns_per_step;
  List.iter (fun l -> pf "  %s\n" l) r.notes;
  List.iter (fun (k, v) -> pf "  attempted/failed: %s %d\n" k v) r.counts;
  List.iter (fun x -> pf "  %-36s %14.4f %s\n" x.name x.value x.unit_) r.e2e;
  if !trace = 1 then begin
    List.iter (fun x -> pf "  layer %-34s %14.4f %s\n" x.name x.value x.unit_) r.layer;
    let dir = "perfbench/out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir !workload !seed in
    write_spans path;
    pf "  spans written to %s\n" path
  end;
  pf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.failed = 0) r.attempted r.failed
    (json_metrics (if !trace = 1 then r.layer else r.e2e))
