(* Shared plumbing for the benchmark workloads: clocks, order
   statistics, allocation probes, the span recorder of the traced run,
   and the result every workload hands back to the main program. *)

let addr = Ipv4.of_string_exn
let net = Ipv4net.of_string_exn
(* Seconds on the monotonic clock, to the nanosecond: single flaps and
   packets take microseconds, below the resolution of gettimeofday. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- order statistics --------------------------------------------------- *)

(* Linear interpolation between closest ranks, as Python's
   statistics.quantiles(method="inclusive") does. *)
let quantile values q =
  let a = Array.of_list values in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median values = quantile values 0.5

(* --- host speed ------------------------------------------------------------------ *)

(* The host's speed drifts by 15% and more within seconds (other tenants
   share the machine), and a timed sample drifts with it. A gauge
   brackets each stretch of timed work with a short fixed CPU-bound loop
   (hashing into a cache-resident table, about 1 ms) that moves only
   with the host, never with the program, and scales the stretch's
   times by [reference_ns_per_step] over the loop's speed around it.
   Reported times are therefore wall times on a host running the loop
   at the reference speed (this host's typical speed). *)
let reference_ns_per_step = 2.5
let tick_steps = 400_000
let tick_table = Array.make 65536 0
let tick_state = ref 12345
let tick_log : float list ref = ref []

let tick () =
  let x = ref !tick_state in
  let t0 = now () in
  for i = 1 to tick_steps do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    let k = !x land 0xFFFF in
    tick_table.(k) <- tick_table.(k) + i
  done;
  let ns = (now () -. t0) *. 1e9 /. float_of_int tick_steps in
  tick_state := !x;
  tick_log := ns :: !tick_log;
  ns

type gauge = { mutable last : float }

let gauge () = { last = tick () }

(* Start a stretch of timed work. *)
let restart g = g.last <- tick ()

(* End a stretch: the factor that turns its wall times into times on the
   reference host. *)
let rescale g =
  let c = tick () in
  let f = reference_ns_per_step /. ((g.last +. c) /. 2.) in
  g.last <- c;
  f

(* --- allocation and memory ---------------------------------------------- *)

let minor_words () = Gc.minor_words ()

let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Run-wide counters a workload reads before and after its measured
   part. *)
type probe = { p_wall : float; p_minor : float; p_promoted : float; p_majors : int }

let probe () =
  let st = Gc.quick_stat () in
  { p_wall = now (); p_minor = st.Gc.minor_words;
    p_promoted = st.Gc.promoted_words; p_majors = st.Gc.major_collections }

type delta = { wall : float; promoted : float; majors : int }

let delta p0 =
  let p1 = probe () in
  { wall = p1.p_wall -. p0.p_wall; promoted = p1.p_promoted -. p0.p_promoted;
    majors = p1.p_majors - p0.p_majors }

(* --- metrics --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* --- the result of one run ------------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  e2e : metric list;       (* reported with --trace 0 *)
  layer : metric list;     (* reported with --trace 1 *)
  counts : (string * int) list; (* operations, per kind, for the log *)
  notes : string list;     (* human-readable lines *)
}

(* --- spans of the traced run ---------------------------------------------- *)

(* A span brackets one call the benchmark makes into a layer's public
   functions. Spans stay in memory until the run ends; [write_spans]
   dumps them as JSON lines. *)
type span = {
  sp_id : int;
  sp_parent : int;  (* 0: top level *)
  sp_name : string;
  sp_start : float;
  mutable sp_end : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_span = ref 1
let current = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let sp =
      { sp_id = !next_span; sp_parent = !current; sp_name = name;
        sp_start = now (); sp_end = nan }
    in
    incr next_span;
    let saved = !current in
    current := sp.sp_id;
    let finish () =
      sp.sp_end <- now ();
      current := saved;
      spans := sp :: !spans
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun sp ->
       Printf.fprintf oc
         "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
         sp.sp_id sp.sp_parent sp.sp_name sp.sp_start sp.sp_end)
    (List.rev !spans);
  close_out oc

(* --- telemetry the program keeps ------------------------------------------ *)

let counter name =
  match Telemetry.find_metric name with
  | Some (Telemetry.Counter c) -> Telemetry.counter_value c
  | _ -> 0

(* Sum (microseconds) and count of every histogram whose name satisfies
   [pred]. *)
let histogram_sum pred =
  List.fold_left
    (fun (s, n) (name, metric) ->
       match metric with
       | Telemetry.Histogram h when pred name ->
         (s +. Telemetry.Histogram.sum h, n + Telemetry.Histogram.count h)
       | _ -> (s, n))
    (0., 0) (Telemetry.list_metrics ())

(* --- loop driving ------------------------------------------------------------ *)

(* Turn the loop until [pred] holds. Gives up (returning [false]) when
   the virtual clock has moved [patience] seconds past the start, which
   on zero-latency links means the awaited change is not coming. [each]
   runs after every turn (queue sampling in the traced run). *)
let run_until ?(patience = 5.0) ?(each = fun () -> ()) loop pred =
  let deadline = Eventloop.now loop +. patience in
  let rec go () =
    if pred () then true
    else if Eventloop.now loop > deadline then false
    else begin
      let progressed = Eventloop.run_once loop in
      each ();
      if progressed then go () else pred ()
    end
  in
  go ()
