(* A BGP speaker outside the router under test. It dials the router
   over a netsim stream, completes the OPEN exchange through
   [Peer_fsm], and then writes UPDATE bytes the benchmark encoded in
   advance — so encoding is input generation, not measured work. *)

type t = {
  fsm : Peer_fsm.t;
  mutable ep : Netsim.Stream.endpoint option;
}

let create ~loop ~netsim ~local_addr ~local_as ~peer_addr ~peer_as =
  let fsm =
    Peer_fsm.create loop
      { Peer_fsm.local_as; bgp_id = local_addr; peer_as; hold_time = 300.0 }
      { Peer_fsm.on_established = (fun () -> ());
        on_update = (fun _ -> ());
        on_down = (fun _ -> ()) }
  in
  let t = { fsm; ep = None } in
  Peer_fsm.start_active fsm;
  Netsim.Stream.connect netsim ~src:local_addr ~dst:peer_addr ~port:179
    (function
      | None -> failwith "injector: connection refused"
      | Some ep ->
        t.ep <- Some ep;
        Netsim.Stream.on_receive ep (fun d -> Peer_fsm.recv fsm d);
        Netsim.Stream.on_close ep (fun () -> Peer_fsm.transport_closed fsm);
        Peer_fsm.transport_up fsm
          { Peer_fsm.tr_send = (fun d -> Netsim.Stream.send ep d);
            tr_close = (fun () -> Netsim.Stream.close ep) });
  t

let established t = Peer_fsm.state t.fsm = Peer_fsm.Established

let send t bytes =
  match t.ep with
  | Some ep -> Netsim.Stream.send ep bytes
  | None -> failwith "injector: not connected"

let stop t = Peer_fsm.stop t.fsm
