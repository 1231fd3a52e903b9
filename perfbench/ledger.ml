(* The per-layer ledger of the traced run.

   Two sources:
   - replays: the benchmark calls one layer's public functions directly
     over the run's own inputs (the feed's UPDATE bytes and routes, the
     packet mix) and times them in spans;
   - the histograms the program keeps for its staged tables
     ([bgp.<stage>.add_us] / [delete_us], [rib.<stage>.*]), which
     include the time of the downstream stages each stage calls into;
     the ledger turns them into self times. *)

open Bench

(* Median over [passes] repetitions of [f], which returns seconds and
   words for one pass. *)
let passes = 3

let replay f =
  let runs = List.init passes (fun _ -> f ()) in
  (median (List.map fst runs), median (List.map snd runs))

let timed f =
  let w0 = minor_words () in
  let t0 = now () in
  f ();
  (now () -. t0, minor_words () -. w0)

(* --- replays over the run's own inputs -------------------------------- *)

let decode_replay (updates : string array) ~routes =
  let n = Array.length updates in
  let s, words =
    replay (fun () ->
        span "bgp_packet.decode" (fun () ->
            timed (fun () ->
                Array.iter
                  (fun m ->
                     match Bgp_packet.decode m with
                     | Ok _ -> ()
                     | Error e -> failwith ("decode replay: " ^ e))
                  updates)))
  in
  [ m "bgp_packet.decode_us_per_update" "us" (s *. 1e6 /. float_of_int n);
    m "bgp_packet.words_per_route" "words" (words /. float_of_int routes) ]

let fib_entries (feed : Feed.entry array) =
  Array.map
    (fun (e : Feed.entry) ->
       { Fib.net = e.Feed.net; nexthop = e.Feed.nexthop; ifname = "eth1";
         protocol = "bgp" })
    feed

let fib_replay (feed : Feed.entry array) (dsts : Ipv4.t array) =
  let entries = fib_entries feed in
  let n = Array.length entries in
  let adds = ref [] and dels = ref [] and looks = ref [] in
  for _ = 1 to passes do
    let fib = Fib.create () in
    adds := span "fib.add" (fun () -> timed (fun () -> Array.iter (Fib.add fib) entries)) :: !adds;
    looks :=
      span "fib.lookup" (fun () ->
          timed (fun () -> Array.iter (fun d -> ignore (Fib.lookup fib d)) dsts))
      :: !looks;
    dels :=
      span "fib.delete" (fun () ->
          timed (fun () ->
              Array.iter (fun (e : Fib.entry) -> ignore (Fib.delete fib e.Fib.net)) entries))
      :: !dels
  done;
  let med l = (median (List.map fst l), median (List.map snd l)) in
  let add_s, add_w = med !adds and del_s, _ = med !dels and look_s, look_w = med !looks in
  let nl = float_of_int (Array.length dsts) in
  [ m "fib.add_ns" "ns" (add_s *. 1e9 /. float_of_int n);
    m "fib.delete_ns" "ns" (del_s *. 1e9 /. float_of_int n);
    m "fib.words_per_add" "words" (add_w /. float_of_int n);
    m "fib.lookup_ns" "ns" (look_s *. 1e9 /. nl);
    m "fib.words_per_lookup" "words" (look_w /. nl) ]

let codec_replay (wire : string array) =
  let s, _ =
    replay (fun () ->
        span "packet.codec" (fun () ->
            timed (fun () ->
                Array.iter
                  (fun w ->
                     match Packet.of_wire w with
                     | Ok p -> ignore (Packet.to_wire p)
                     | Error e -> failwith ("codec replay: " ^ e))
                  wire)))
  in
  [ m "packet.codec_ns" "ns" (s *. 1e9 /. float_of_int (Array.length wire)) ]

(* The element graph alone: packets pushed straight into [Dataplane.rx]
   and absorbed at the egress element, so neither netsim leg runs. *)
let graph_replay (inp : Forward.inputs) =
  let s = Forward.build inp in
  Dataplane.set_tx_hook s.Forward.dp (Some (fun _ -> `Absorb));
  let n = Array.length inp.Forward.wire in
  let secs, _ =
    replay (fun () ->
        span "dataplane.rx" (fun () ->
            timed (fun () ->
                let i = ref 0 in
                while !i < n do
                  for k = !i to min n (!i + Forward.batch) - 1 do
                    Dataplane.rx s.Forward.dp ~ifname:"eth0" inp.Forward.wire.(k)
                  done;
                  Eventloop.run s.Forward.loop;
                  i := !i + Forward.batch
                done)))
  in
  Fea.shutdown s.Forward.fea;
  [ m "dataplane.graph_ns_per_packet" "ns" (secs *. 1e9 /. float_of_int n) ]

(* One netsim datagram leg: send, deliver, receive callback. *)
let dgram_replay (wire : string array) =
  let loop = Eventloop.create ~mode:`Sim () in
  let netsim = Netsim.create loop in
  let a = Netsim.Dgram.bind netsim ~addr:(addr "10.200.0.1") ~port:4 in
  let b = Netsim.Dgram.bind netsim ~addr:(addr "10.200.0.2") ~port:4 in
  let got = ref 0 in
  Netsim.Dgram.on_receive b (fun ~src:_ ~sport:_ _ -> incr got);
  let n = Array.length wire in
  let secs, _ =
    replay (fun () ->
        span "netsim.dgram" (fun () ->
            timed (fun () ->
                let i = ref 0 in
                while !i < n do
                  for k = !i to min n (!i + Forward.batch) - 1 do
                    Netsim.Dgram.sendto a ~dst:(addr "10.200.0.2") ~dport:4 wire.(k)
                  done;
                  Eventloop.run loop;
                  i := !i + Forward.batch
                done)))
  in
  if !got <> passes * n then failwith "netsim replay lost datagrams";
  [ m "netsim.dgram_ns_per_packet" "ns" (secs *. 1e9 /. float_of_int n) ]

(* Every replay, over the inputs the seeds generate. *)
let replays ~feed_seed ~mix_seed =
  let ft = Full_table.generate ~feed_seed in
  let fw = Forward.generate ~feed_seed ~mix_seed in
  let routes = Array.length ft.Full_table.feed in
  List.concat
    [ decode_replay ft.Full_table.updates ~routes;
      fib_replay fw.Forward.feed fw.Forward.dsts;
      codec_replay fw.Forward.wire;
      graph_replay fw;
      dgram_replay fw.Forward.wire ]

let value name metrics =
  match List.find_opt (fun x -> x.name = name) metrics with
  | Some x -> x.value
  | None -> nan

(* --- stage self times from the program's histograms --------------------- *)

(* A histogram's name without the [r<index>.] namespace a Simnet
   router records under. *)
let unqualified name =
  match String.index_opt name '.' with
  | Some i
    when i > 1 && name.[0] = 'r'
         && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name 1 (i - 1)) ->
    String.sub name (i + 1) (String.length name - i - 1)
  | _ -> name

(* Total microseconds (add + delete) of the histograms of one stage
   kind: names are [<component>.<stage name>.add_us]. *)
let stage_us ~component pred =
  fst
    (histogram_sum (fun name ->
         let name = unqualified name in
         match String.index_opt name '.' with
         | Some i when String.sub name 0 i = component ->
           let rest = String.sub name (i + 1) (String.length name - i - 1) in
           (String.ends_with ~suffix:".add_us" rest
            || String.ends_with ~suffix:".delete_us" rest)
           && pred (Filename.remove_extension rest)
         | _ -> false))

let suffix s name = String.ends_with ~suffix:s name

(* Self time of each stage group, microseconds. A stage's histogram
   includes the downstream stages it calls synchronously, so each
   group's self time is its total minus its direct successor's:
   BGP   PeerIn > import filter (and nexthop resolver) > decision > fanout;
         export filter > PeerOut run from the fanout's drain;
   RIB   origin > merge > extint > register > redist.
   Route operations that enter BGP (the PeerIn count) are the
   denominator of every per-route figure, so the figures add up. *)
let stages () =
  let b = stage_us ~component:"bgp" and r = stage_us ~component:"rib" in
  let b_in = b (suffix ":in") and b_imp = b (suffix ":import")
  and b_dec = b (( = ) "decision") and b_fan = b (( = ) "fanout")
  and b_exp = b (suffix ":export") in
  let r_org = r (fun n -> n = "origin:ebgp" || n = "origin:ibgp")
  and r_mrg = r (( = ) "merge:ebgp+ibgp") and r_ext = r (( = ) "extint")
  and r_reg = r (( = ) "register") and r_red = r (( = ) "redist") in
  [ ("bgp.peer_in", b_in -. b_imp);
    ("bgp.import", b_imp -. b_dec);
    ("bgp.decision", b_dec -. b_fan);
    ("bgp.fanout", b_fan);
    ("bgp.export", b_exp);
    ("rib.origin", r_org -. r_mrg);
    ("rib.merge", r_mrg -. r_ext);
    ("rib.extint", r_ext -. r_reg);
    ("rib.register", r_reg -. r_red);
    ("rib.redist", r_red) ]

let bgp_route_ops () =
  snd
    (histogram_sum (fun name ->
         let name = unqualified name in
         String.starts_with ~prefix:"bgp." name
         && (suffix ":in.add_us" name || suffix ":in.delete_us" name)))

let stage_metrics () =
  let ops = float_of_int (max 1 (bgp_route_ops ())) in
  List.map
    (fun (name, us) -> m (name ^ ".self_us_per_route") "us" (us /. ops))
    (stages ())

let stage_total_s () =
  List.fold_left (fun acc (_, us) -> acc +. us) 0. (stages ()) /. 1e6
