open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Compass_clients
open Prog.Syntax

(* Outcome-set inclusion of an implementation in its spec object (see
   refine.mli for the argument). *)

let max_execs = 120_000
let spec_execs = 200_000

type client_result = {
  client : string;
  spec_complete : bool;
  report : Explore.report;
  ok : bool;
}

type report = { clients : client_result list; ok : bool; complete : bool }

(* -- observation clients ------------------------------------------------------ *)

(* Thread return values are the observations; removers pack what they saw
   into their result.  Values are [val_of]-distinct and < 1000, so the
   packing is injective. *)

let code = function Value.Int n -> n | _ -> 0
let pack2 a b = Value.Int ((code a * 1000) + code b)
let v tid i = Harness.val_of ~tid ~i
let key_of vs = String.concat "," (List.map Value.to_string (Array.to_list vs))

let queue_clients :
    (string
    * (Iface.queue_factory ->
      judge:(Value.t array -> Explore.verdict) ->
      Explore.scenario))
    list =
  let sc name (factory : Iface.queue_factory) ~judge build =
    Harness.scenario ~name:(factory.Iface.q_name ^ ":" ^ name) (fun m ->
        (build (factory.make_queue m ~name:"q"), judge))
  in
  [
    (* one inserter, one remover observing twice: FIFO order is visible *)
    ( "enq2|deq2",
      fun f ~judge ->
        sc "enq2|deq2" f ~judge (fun q ->
            [
              Prog.returning_unit
                (Prog.seq [ q.Iface.enq (v 0 0); q.Iface.enq (v 0 1) ]);
              (let* a = q.Iface.deq () in
               let* b = q.Iface.deq () in
               Prog.return (pack2 a b));
            ]) );
    (* competing enqueuers (tail helping) against one observer *)
    ( "enq|enq|deq",
      fun f ~judge ->
        sc "enq|enq|deq" f ~judge (fun q ->
            [
              Prog.returning_unit (q.Iface.enq (v 0 0));
              Prog.returning_unit (q.Iface.enq (v 1 0));
              q.Iface.deq ();
            ]) );
    (* competing dequeuers (head-CAS race) over one insertion *)
    ( "enq|deq|deq",
      fun f ~judge ->
        sc "enq|deq|deq" f ~judge (fun q ->
            [
              Prog.returning_unit (q.Iface.enq (v 0 0));
              q.Iface.deq ();
              q.Iface.deq ();
            ]) );
  ]

let stack_clients :
    (string
    * (Iface.stack_factory ->
      judge:(Value.t array -> Explore.verdict) ->
      Explore.scenario))
    list =
  let sc name (factory : Iface.stack_factory) ~judge build =
    Harness.scenario ~name:(factory.Iface.s_name ^ ":" ^ name) (fun m ->
        (build (factory.make_stack m ~name:"s"), judge))
  in
  [
    ( "push2|pop2",
      fun f ~judge ->
        sc "push2|pop2" f ~judge (fun s ->
            [
              Prog.returning_unit
                (Prog.seq [ s.Iface.push (v 0 0); s.Iface.push (v 0 1) ]);
              (let* a = s.Iface.pop () in
               let* b = s.Iface.pop () in
               Prog.return (pack2 a b));
            ]) );
    ( "push|push|pop",
      fun f ~judge ->
        sc "push|push|pop" f ~judge (fun s ->
            [
              Prog.returning_unit (s.Iface.push (v 0 0));
              Prog.returning_unit (s.Iface.push (v 1 0));
              s.Iface.pop ();
            ]) );
    ( "push|pop|pop",
      fun f ~judge ->
        sc "push|pop|pop" f ~judge (fun s ->
            [
              Prog.returning_unit (s.Iface.push (v 0 0));
              s.Iface.pop ();
              s.Iface.pop ();
            ]) );
  ]

type cl = {
  cl_name : string;
  impl_sc : judge:(Value.t array -> Explore.verdict) -> Explore.scenario;
  spec_sc : judge:(Value.t array -> Explore.verdict) -> Explore.scenario;
}

(* Each client runs twice: over the implementation and over the spec
   object built from the entry's spec. *)
let clients_for (e : Libspec.entry) =
  let spec = e.Libspec.spec in
  match e.Libspec.impl with
  | Specreg.Queue f when e.Libspec.refinable ->
      let sf = Specobj.queue ~spec () in
      List.map
        (fun (n, b) -> { cl_name = n; impl_sc = b f; spec_sc = b sf })
        queue_clients
  | Specreg.Stack f when e.Libspec.refinable ->
      let sf = Specobj.stack ~spec () in
      List.map
        (fun (n, b) -> { cl_name = n; impl_sc = b f; spec_sc = b sf })
        stack_clients
  | _ ->
      invalid_arg
        (Printf.sprintf "structure %s is not refinable" e.Libspec.key)

(* -- the driver --------------------------------------------------------------- *)

let collect tbl vs =
  Hashtbl.replace tbl (key_of vs) ();
  Explore.Pass

let membership tbl vs =
  let k = key_of vs in
  if Hashtbl.mem tbl k then Explore.Pass
  else
    Explore.Violation
      (Printf.sprintf "outcome [%s] is not admitted by the spec object" k)

let run (e : Libspec.entry) =
  let clients =
    List.map
      (fun c ->
        let tbl = Hashtbl.create 64 in
        let sr =
          Explore.dfs ~max_execs:spec_execs (c.spec_sc ~judge:(collect tbl))
        in
        let r =
          Explore.dfs ~max_execs ~reduce:Machine.RDpor
            (c.impl_sc ~judge:(membership tbl))
        in
        {
          client = c.cl_name;
          spec_complete = sr.Explore.complete;
          report = r;
          ok = Explore.ok r && sr.Explore.complete;
        })
      (clients_for e)
  in
  {
    clients;
    ok = List.for_all (fun (c : client_result) -> c.ok) clients;
    complete =
      List.for_all
        (fun (c : client_result) -> c.report.Explore.complete)
        clients;
  }
