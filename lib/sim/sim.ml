open Compass_event
open Compass_machine
open Compass_spec
open Compass_util
module Fz = Compass_fuzz

(* The simulation-refinement driver: see sim.mli. *)

type options = {
  mgc_depth : int;
  max_execs : int;
  jobs : int;
  reduce : Machine.reduction;
  incremental : bool;
  until_violation : bool;
  shrink : bool;
  max_replays : int;
  only_client : string option;
}

let default_options =
  {
    mgc_depth = 2;
    max_execs = 50_000;
    jobs = 1;
    reduce = Machine.RSleep;
    incremental = true;
    until_violation = false;
    shrink = true;
    max_replays = 20_000;
    only_client = None;
  }

type detail = {
  d_fault : bool;
  d_step : int;
  d_what : string;
  d_prefix : string list;
}

type witness = {
  w_client : string;
  w_message : string;
  w_trace : Decision.trace;
  w_raw_len : int;
  w_replays : int;
  w_detail : detail option;
}

type client_row = {
  c_id : string;
  c_report : Explore.report;
  c_ok : bool;
  c_gave_up : int;
}

type report = {
  struct_key : string;
  impl_name : string;
  spec_name : string;
  depth : int;
  clients_total : int;
  clients_run : int;
  executions : int;
  sim_states : int;
  rows : client_row list;
  witness : witness option;
  ok : bool;
  complete : bool;
}

let kind_of (e : Libspec.entry) =
  match e.Libspec.spec.Libspec.kind with
  | Some k -> k
  | None ->
      invalid_arg
        (Printf.sprintf "Sim: structure %s has no sequential kind"
           e.Libspec.key)

(* Violation messages stay free of schedule-dependent detail (step
   numbers, prefixes): ddmin shrinking accepts only candidates that
   reproduce the exact message, and the break detail is recovered by
   replaying the shrunk script instead. *)
let break_message (b : Simrel.break_) =
  Format.asprintf
    "simulation break at commit %a by thread %d: no legal commit-point \
     assignment"
    Event.pp_typ b.Simrel.at.Event.typ b.Simrel.at.Event.tid

let fault_message s = "simulation break (concrete fault): " ^ s

(* The per-execution judge.  [states] and [gave_up] are shared across
   domains under [jobs > 1]; verdicts themselves are per-execution pure.
   A give-up is booked as a discard, so it is counted separately: the
   execution was not checked. *)
let judge kind ~(states : int Atomic.t) ~(gave_up : int Atomic.t) g outcome =
  match outcome with
  | Machine.Finished _ -> (
      match Simrel.check kind g with
      | Simrel.Simulates { states = s } ->
          ignore (Atomic.fetch_and_add states s);
          Explore.Pass
      | Simrel.Breaks b ->
          ignore (Atomic.fetch_and_add states b.Simrel.states);
          Explore.Violation (break_message b)
      | Simrel.Gave_up { states = s } ->
          ignore (Atomic.fetch_and_add states s);
          Atomic.incr gave_up;
          Explore.Discard "simulation search budget exhausted")
  | Machine.Fault s -> Explore.Violation (fault_message s)
  | Machine.Blocked s -> Explore.Discard s
  | Machine.Bounded -> Explore.Discard "bounded"
  | Machine.Pruned -> Explore.Discard "pruned"

let scenario_of ?(gave_up = Atomic.make 0) (e : Libspec.entry) kind states c =
  Mgc.scenario e ~judge:(judge kind ~states ~gave_up) c

let render (ev : Event.data) =
  Format.asprintf "%a at commit %d (thread %d)" Event.pp_typ ev.Event.typ
    (fst ev.Event.cix) ev.Event.tid

(* Replay a (shrunk) witness script and localise the break: the faulting
   machine step for concrete faults, the earliest breaking commit point
   otherwise, each with the commits matched before it. *)
let detail_of (e : Libspec.entry) kind c script =
  let gref = ref None in
  let sc =
    Mgc.scenario e
      ~judge:(fun g o ->
        gref := Some g;
        judge kind ~states:(Atomic.make 0) ~gave_up:(Atomic.make 0) g o)
      c
  in
  let r = Explore.replay ~config:Machine.default_config sc script in
  let m = r.Explore.r_machine in
  match (r.Explore.r_outcome, !gref) with
  | Machine.Fault s, Some g ->
      Some
        {
          d_fault = true;
          d_step = Machine.steps m;
          d_what = "fault: " ^ s;
          d_prefix = List.map render (Graph.events_by_cix g);
        }
  | Machine.Finished _, Some g -> (
      match Simrel.check kind g with
      | Simrel.Breaks b ->
          Some
            {
              d_fault = false;
              d_step = fst b.Simrel.at.Event.cix;
              d_what = render b.Simrel.at;
              d_prefix = List.map render b.Simrel.prefix;
            }
      | _ -> None)
  | _ -> None

let run ?(options = default_options) (e : Libspec.entry) =
  if not e.Libspec.refinable then
    invalid_arg
      (Printf.sprintf "structure %s is not refinable" e.Libspec.key);
  let kind = kind_of e in
  let clients =
    let all = Mgc.generate ~depth:options.mgc_depth () in
    match options.only_client with
    | None -> all
    | Some id -> List.filter (fun (c : Mgc.client) -> c.Mgc.id = id) all
  in
  let states = Atomic.make 0 in
  let witness = ref None in
  let rows = ref [] in
  let run_client (c : Mgc.client) =
    let gave_up = Atomic.make 0 in
    let sc = scenario_of ~gave_up e kind states c in
    let r =
      Explore.dfs ~jobs:options.jobs ~max_execs:options.max_execs
        ~reduce:options.reduce ~incremental:options.incremental
        ~until_violation:options.until_violation sc
    in
    rows :=
      {
        c_id = c.Mgc.id;
        c_report = r;
        c_ok = Explore.ok r;
        c_gave_up = Atomic.get gave_up;
      }
      :: !rows;
    (if !witness = None then
       match r.Explore.violations with
       | f :: _ ->
           let raw = f.Explore.trace in
           let script, replays =
             if options.shrink then
               let stats, shrunk =
                 Fz.Shrink.minimize ~max_replays:options.max_replays
                   ~scenario:(scenario_of e kind states c)
                   ~message:f.Explore.message raw
               in
               (shrunk, stats.Fz.Shrink.replays)
             else (raw, 0)
           in
           witness :=
             Some
               {
                 w_client = c.Mgc.id;
                 w_message = f.Explore.message;
                 w_trace = script;
                 w_raw_len = Array.length raw;
                 w_replays = replays;
                 w_detail = detail_of e kind c script;
               }
       | [] -> ());
    Explore.ok r
  in
  let rec loop = function
    | [] -> ()
    | c :: rest ->
        let ok = run_client c in
        if (not ok) && options.until_violation then () else loop rest
  in
  loop clients;
  let rows = List.rev !rows in
  let impl_name =
    match e.Libspec.impl with
    | Compass_clients.Specreg.Queue f -> f.Compass_dstruct.Iface.q_name
    | Compass_clients.Specreg.Stack f -> f.Compass_dstruct.Iface.s_name
    | _ -> e.Libspec.struct_name
  in
  {
    struct_key = e.Libspec.key;
    impl_name;
    spec_name = e.Libspec.spec.Libspec.name;
    depth = options.mgc_depth;
    clients_total = List.length clients;
    clients_run = List.length rows;
    executions =
      List.fold_left (fun n r -> n + r.c_report.Explore.executions) 0 rows;
    sim_states = Atomic.get states;
    rows;
    witness = !witness;
    ok = List.for_all (fun r -> r.c_ok) rows;
    complete =
      List.for_all
        (fun r -> r.c_report.Explore.complete && r.c_gave_up = 0)
        rows;
  }

let client_scenario ?(depth = 2) (e : Libspec.entry) id =
  match Mgc.find ~depth id with
  | None -> None
  | Some c -> (
      match e.Libspec.spec.Libspec.kind with
      | None -> None
      | Some kind -> Some (scenario_of e kind (Atomic.make 0) c))

(* -- reporting ---------------------------------------------------------------- *)

let pp ppf r =
  Format.fprintf ppf
    "@[<v>simulation: %s (impl %s) against spec %s, mgc depth %d@,\
     \  %d/%d clients explored, %d executions, %d commit-point search states%s@,"
    r.struct_key r.impl_name r.spec_name r.depth r.clients_run r.clients_total
    r.executions r.sim_states
    (if r.complete then ""
     else
       let count f = List.length (List.filter f r.rows) in
       Printf.sprintf
         " (INCOMPLETE: %d client(s) not exhausted, %d gave up)"
         (count (fun row -> not row.c_report.Explore.complete))
         (count (fun row -> row.c_gave_up > 0)));
  List.iter
    (fun row ->
      if not row.c_ok then
        Format.fprintf ppf "  %-16s %7d executions  VIOLATION: %s@," row.c_id
          row.c_report.Explore.executions
          (match row.c_report.Explore.violations with
          | f :: _ -> f.Explore.message
          | [] -> "?");
      if row.c_gave_up > 0 then
        Format.fprintf ppf
          "  %-16s %7d executions  commit-point search GAVE UP on %d \
           (over 62 events or state budget): not checked@,"
          row.c_id row.c_report.Explore.executions row.c_gave_up)
    r.rows;
  (match r.witness with
  | Some w ->
      Format.fprintf ppf
        "  witness: client %s, script %s (shrunk from %d choices in %d \
         replays)@,"
        w.w_client
        (String.concat ","
           (List.map string_of_int (Array.to_list (Decision.choices w.w_trace))))
        w.w_raw_len w.w_replays;
      (match w.w_detail with
      | Some d ->
          Format.fprintf ppf
            "  abstraction breaks at step %d: %s@,  matched commits before \
             the break: %s@,"
            d.d_step d.d_what
            (if d.d_prefix = [] then "(none)"
             else String.concat "; " d.d_prefix)
      | None -> ())
  | None -> ());
  Format.fprintf ppf "  verdict: %s@]"
    (if not r.ok then "does NOT simulate"
     else if r.complete then "SIMULATES"
     else Printf.sprintf "no violation within %d executions" r.executions)

let to_json r =
  Jsonout.Obj
    [
      ("struct", Jsonout.Str r.struct_key);
      ("impl", Jsonout.Str r.impl_name);
      ("spec", Jsonout.Str r.spec_name);
      ("mgc_depth", Jsonout.Int r.depth);
      ("clients_total", Jsonout.Int r.clients_total);
      ("clients_run", Jsonout.Int r.clients_run);
      ("executions", Jsonout.Int r.executions);
      ("sim_states", Jsonout.Int r.sim_states);
      ("ok", Jsonout.Bool r.ok);
      ("complete", Jsonout.Bool r.complete);
      ( "gave_up_clients",
        Jsonout.str_list
          (List.filter_map
             (fun row -> if row.c_gave_up > 0 then Some row.c_id else None)
             r.rows) );
      ( "clients",
        Jsonout.List
          (List.map
             (fun row ->
               Jsonout.Obj
                 [
                   ("client", Jsonout.Str row.c_id);
                   ("executions", Jsonout.Int row.c_report.Explore.executions);
                   ("complete", Jsonout.Bool row.c_report.Explore.complete);
                   ("gave_up", Jsonout.Int row.c_gave_up);
                   ("ok", Jsonout.Bool row.c_ok);
                 ])
             r.rows) );
      ( "witness",
        match r.witness with
        | None -> Jsonout.Null
        | Some w ->
            Jsonout.Obj
              ([
                 ("client", Jsonout.Str w.w_client);
                 ("message", Jsonout.Str w.w_message);
                 ("trace", Decision.trace_to_json w.w_trace);
                 ("raw_len", Jsonout.Int w.w_raw_len);
                 ("shrink_replays", Jsonout.Int w.w_replays);
               ]
              @
              match w.w_detail with
              | None -> []
              | Some d ->
                  [
                    ( "break",
                      Jsonout.Obj
                        [
                          ("fault", Jsonout.Bool d.d_fault);
                          ("step", Jsonout.Int d.d_step);
                          ("what", Jsonout.Str d.d_what);
                          ("matched_prefix", Jsonout.str_list d.d_prefix);
                        ] );
                  ]) );
    ]
