open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Compass_util
open Prog.Syntax

(* The refinement driver: outcome-set inclusion of an implementation in
   its spec object (see refine.mli for the argument). *)

type options = {
  max_execs : int;
  spec_execs : int;
  jobs : int;
  reduce : Machine.reduction;
}

let default_options =
  { max_execs = 200_000; spec_execs = 200_000; jobs = 1; reduce = Machine.RNone }

type client_result = {
  client : string;
  spec_outcomes : int;
  spec_complete : bool;
  report : Explore.report;
  ok : bool;
}

type report = {
  struct_key : string;
  impl_name : string;
  spec_name : string;
  clients : client_result list;
  counterexample : (int * Explore.failure) option;
  ok : bool;
  complete : bool;
}

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

let clients_for (e : Libspec.entry) =
  match (e.Libspec.impl, Specreg.spec_factory e) with
  | Specreg.Queue f, Specreg.Queue sf ->
      List.map
        (fun (n, b) -> { cl_name = n; impl_sc = b f; spec_sc = b sf })
        queue_clients
  | Specreg.Stack f, Specreg.Stack sf ->
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

let spec_set ~spec_execs (c : cl) =
  let tbl = Hashtbl.create 64 in
  let r = Explore.dfs ~max_execs:spec_execs (c.spec_sc ~judge:(collect tbl)) in
  (tbl, r)

let run ?(options = default_options) (e : Libspec.entry) =
  let cex = ref None in
  let clients =
    List.mapi
      (fun i c ->
        let tbl, sr = spec_set ~spec_execs:options.spec_execs c in
        let sc = c.impl_sc ~judge:(membership tbl) in
        let r =
          Explore.dfs ~jobs:options.jobs ~max_execs:options.max_execs
            ~reduce:options.reduce sc
        in
        if !cex = None then
          (match r.Explore.violations with
          | f :: _ -> cex := Some (i, f)
          | [] -> ());
        {
          client = c.cl_name;
          spec_outcomes = Hashtbl.length tbl;
          spec_complete = sr.Explore.complete;
          report = r;
          ok = Explore.ok r && sr.Explore.complete;
        })
      (clients_for e)
  in
  let impl_name =
    match e.Libspec.impl with
    | Specreg.Queue f -> f.Iface.q_name
    | Specreg.Stack f -> f.Iface.s_name
    | _ -> e.Libspec.struct_name
  in
  {
    struct_key = e.Libspec.key;
    impl_name;
    spec_name = e.Libspec.spec.Libspec.name;
    clients;
    counterexample = !cex;
    ok = List.for_all (fun (c : client_result) -> c.ok) clients;
    complete =
      List.for_all
        (fun (c : client_result) -> c.report.Explore.complete)
        clients;
  }

let client_scenario (e : Libspec.entry) i =
  match List.nth_opt (clients_for e) i with
  | None -> None
  | Some c ->
      let tbl, _ = spec_set ~spec_execs:default_options.spec_execs c in
      Some (c.impl_sc ~judge:(membership tbl))

(* -- reporting ---------------------------------------------------------------- *)

let pp ppf r =
  Format.fprintf ppf "@[<v>refinement: %s (impl %s) against spec %s@,"
    r.struct_key r.impl_name r.spec_name;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-14s %7d impl executions%s vs %3d spec outcomes%s  %s@,"
        c.client c.report.Explore.executions
        (if c.report.Explore.complete then "" else " (budget hit)")
        c.spec_outcomes
        (if c.spec_complete then "" else " (spec side INCOMPLETE)")
        (if c.ok then "included"
         else
           match c.report.Explore.violations with
           | f :: _ -> "VIOLATION: " ^ f.Explore.message
           | [] -> "FAIL"))
    r.clients;
  (match r.counterexample with
  | Some (i, f) ->
      Format.fprintf ppf "  counterexample (client %d) script: %s@," i
        (String.concat ","
           (List.map string_of_int (Array.to_list (Explore.failure_script f))))
  | None -> ());
  Format.fprintf ppf "  verdict: %s@]"
    (if not r.ok then "does NOT refine"
     else if r.complete then "REFINES"
     else
       Printf.sprintf "no violation within %d executions"
         (List.fold_left
            (fun n c -> n + c.report.Explore.executions)
            0 r.clients))

let to_json r =
  Jsonout.Obj
    [
      ("struct", Jsonout.Str r.struct_key);
      ("impl", Jsonout.Str r.impl_name);
      ("spec", Jsonout.Str r.spec_name);
      ("ok", Jsonout.Bool r.ok);
      ("complete", Jsonout.Bool r.complete);
      ( "clients",
        Jsonout.List
          (List.map
             (fun c ->
               Jsonout.Obj
                 [
                   ("client", Jsonout.Str c.client);
                   ("spec_outcomes", Jsonout.Int c.spec_outcomes);
                   ("spec_complete", Jsonout.Bool c.spec_complete);
                   ("ok", Jsonout.Bool c.ok);
                   ("report", Explore.report_to_json c.report);
                 ])
             r.clients) );
      ( "counterexample",
        match r.counterexample with
        | None -> Jsonout.Null
        | Some (i, f) ->
            Jsonout.Obj
              [
                ("client", Jsonout.Int i);
                ("message", Jsonout.Str f.Explore.message);
                ("trace", Compass_machine.Decision.trace_to_json f.Explore.trace);
              ] );
    ]
