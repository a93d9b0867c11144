open Compass_rmc
open Compass_machine
open Compass_dstruct
open Compass_clients
open Compass_analysis

(* The synchronization analyzer: the vector-clock race detector must
   agree with the axiomatic RC11 race clause on every execution, the
   instrumented access logs must not depend on the exploration engine,
   and the mode-necessity audit must rediscover the known facts about
   the Michael–Scott queue — enqueue publication is necessary, and the
   checked-in weakened mutant is broken in exactly that way. *)

let config = { Machine.default_config with record_accesses = true }

let probe key =
  match Specreg.find key with
  | Some e -> e
  | None -> Alcotest.failf "no registered structure named %s" key

(* Collect, per execution, whatever [f] extracts from the access log. *)
let collect ?(max_execs = 20_000) ?(incremental = true) sc f =
  let out = ref [] in
  let sc = Instrument.with_accesses sc (fun log -> out := f log :: !out) in
  let r = Explore.dfs ~max_execs ~incremental ~config sc in
  (r, List.rev !out)

(* --- race detector vs the RC11 oracle ------------------------------ *)

let test_litmus_agreement () =
  List.iter
    (fun (t : Litmus.t) ->
      let r, mismatches =
        collect t.Litmus.scenario (fun log -> Races.differential log)
      in
      Alcotest.(check bool)
        (t.Litmus.scenario.Explore.name ^ " explored")
        true
        (r.Explore.executions > 0);
      List.iteri
        (fun i ms ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s exec %d differential" t.Litmus.scenario.Explore.name i)
            [] ms)
        mismatches)
    (Litmus.all ())

let test_racy_na_flagged () =
  let t = Litmus.racy_na () in
  let racy = ref 0 and execs = ref 0 in
  let sc =
    Instrument.with_accesses t.Litmus.scenario (fun log ->
        incr execs;
        let vc = Races.detect log and ax = Rc11.races log in
        Alcotest.(check (list (pair int int))) "detectors agree" ax vc;
        if vc <> [] then incr racy)
  in
  let r = Explore.dfs ~max_execs:20_000 ~config sc in
  (* the machine's eager detector faults the racy executions... *)
  Alcotest.(check bool) "machine faults" true (r.Explore.violations <> []);
  List.iter
    (fun (f : Explore.failure) ->
      Alcotest.(check bool)
        ("fault message: " ^ f.Explore.message)
        true
        (String.length f.Explore.message >= 5
        && String.sub f.Explore.message 0 5 = "fault"))
    r.Explore.violations;
  (* ...and both offline detectors flag the same conflicting pair. *)
  Alcotest.(check bool) "offline detectors flag races" true (!racy > 0)

(* --- engine-independence of the recorded logs (satellite a) -------- *)

let log_differential name sc =
  let keep log = List.map (fun a -> Format.asprintf "%a" Access.pp a) log in
  let r_inc, logs_inc = collect ~incremental:true sc keep in
  let r_rep, logs_rep = collect ~incremental:false sc keep in
  Alcotest.(check int)
    (name ^ " same execution count")
    r_rep.Explore.executions r_inc.Explore.executions;
  Alcotest.(check int)
    (name ^ " same log count")
    (List.length logs_rep) (List.length logs_inc);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s exec %d access log" name i)
        a b)
    (List.combine logs_rep logs_inc)

let test_incremental_logs_litmus () =
  List.iter
    (fun (t : Litmus.t) ->
      log_differential t.Litmus.scenario.Explore.name t.Litmus.scenario)
    [ Litmus.sb (); Litmus.mp (); Litmus.wrc () ]

let test_incremental_logs_queue () =
  let mk = List.hd (probe "ms").Compass_spec.Libspec.scenarios in
  log_differential "ms mp probe" (mk ())

(* --- the weakened-mutant regression fixture (satellite b) ---------- *)

let weak_opts =
  { Audit.execs = 12_000; jobs = 1; reduce = Machine.RDpor }

let test_ms_weak_violates () =
  let mk = List.hd (probe "ms-weak").Compass_spec.Libspec.scenarios in
  let r =
    Explore.dfs ~max_execs:12_000 ~reduce:Machine.RDpor
      ~config:Machine.default_config (mk ())
  in
  Alcotest.(check bool) "violation found" true (r.Explore.violations <> [])

let test_ms_weak_baseline_fails () =
  let probe = probe "ms-weak" in
  let r =
    Audit.run ~options:weak_opts ~probe:probe.Compass_spec.Libspec.key
      probe.Compass_spec.Libspec.scenarios
  in
  Alcotest.(check bool) "baseline fails" false r.Audit.baseline_ok;
  Alcotest.(check bool) "failure witnessed" true
    (r.Audit.baseline_failure <> None);
  Alcotest.(check int) "no sites audited" 0 (List.length r.Audit.sites)

(* The fixture is the real queue at weaker modes: ms-weak explores
   exactly like ms under the overrides that relax the enqueue's three
   CASes on [next] and [tail] — the same executions, violation messages
   and scripts, searched to completion under DPOR and to a fixed budget
   unreduced.  MP's single enqueuer never contends on [tail]; two
   concurrent enqueuers do, and their search depends on the tail swing's
   mode.  No workload this small depends on the helping CAS's mode;
   test_static pins that site through the lints. *)
let relaxed_publication =
  List.fold_left
    (fun o site -> Override.weaken_access site Mode.Rlx o)
    Override.empty
    [
      "msqueue.enq.link_cas"; "msqueue.enq.tail_swing"; "msqueue.enq.tail_help";
    ]

let test_ms_weak_is_override () =
  let weakened =
    { Machine.default_config with overrides = relaxed_publication }
  in
  let failures (r : Explore.report) =
    List.map
      (fun f -> (f.Explore.message, Array.to_list (Explore.failure_script f)))
      r.Explore.violations
  in
  let clients =
    [
      ("mp", fun f -> Mp.make f (Mp.fresh_stats ()));
      ( "2 enqueuers",
        fun f -> Harness.queue_workload f ~enqers:2 ~deqers:1 ~ops:1 () );
    ]
  in
  List.iter
    (fun (client, mk) ->
      List.iter
        (fun (leg, reduce, max_execs) ->
          let name = client ^ ", " ^ leg in
          let weak =
            Explore.dfs ~reduce ~max_execs (mk Msqueue.relaxed_publication)
          in
          let ms =
            Explore.dfs ~reduce ~max_execs ~config:weakened
              (mk Msqueue.instantiate)
          in
          Test_explore.report_eq ~name weak ms;
          Alcotest.(check (list (pair string (list int))))
            (name ^ ": violations in order") (failures weak) (failures ms);
          Alcotest.(check bool) (name ^ ": violations found") true
            (weak.Explore.violations <> []);
          if reduce = Machine.RDpor then
            Alcotest.(check bool) (name ^ ": complete") true
              weak.Explore.complete)
        [ ("dpor", Machine.RDpor, 400_000); ("none", Machine.RNone, 5_000) ])
    clients

(* --- the mode-necessity audit on the healthy queue ----------------- *)

let audit_site site =
  let probe = probe "ms" in
  let r =
    Audit.run ~options:weak_opts
      ~site_filter:(fun s -> s = site)
      ~probe:probe.Compass_spec.Libspec.key probe.Compass_spec.Libspec.scenarios
  in
  Alcotest.(check bool) "baseline ok" true r.Audit.baseline_ok;
  match r.Audit.sites with
  | [ s ] ->
      Alcotest.(check string) "audited site" site s.Audit.site;
      s
  | sites ->
      Alcotest.failf "expected exactly one audited site, got %d"
        (List.length sites)

let test_audit_link_cas_necessary () =
  let s = audit_site "msqueue.enq.link_cas" in
  match s.Audit.verdict with
  | Audit.Necessary { witness; weakening } ->
      Alcotest.(check bool) "witness script nonempty" true
        (Array.length witness.Explore.trace > 0);
      (* the weakest mutant of an acq_rel CAS is the fully relaxed one *)
      Alcotest.(check string) "weakening" "rlx"
        (Audit.weakening_to_string weakening)
  | v ->
      Alcotest.failf "link_cas should be Necessary, got %s"
        (Audit.verdict_to_string v)

let test_audit_tail_help_over_strong () =
  let s = audit_site "msqueue.enq.tail_help" in
  match s.Audit.verdict with
  | Audit.Over_strong _ -> ()
  | v ->
      Alcotest.failf "tail_help should be Over_strong here, got %s"
        (Audit.verdict_to_string v)

let test_audit_witness_replays () =
  let s = audit_site "msqueue.enq.link_cas" in
  match s.Audit.verdict with
  | Audit.Necessary { witness; weakening } ->
      (* find the scenario the witness came from *)
      let sc_name =
        match
          List.find_opt
            (fun (m : Audit.mutant_result) -> m.Audit.outcome <> Audit.Safe)
            (List.rev s.Audit.mutants)
        with
        | Some { Audit.scenario = Some n; _ } -> n
        | _ -> Alcotest.fail "witnessing mutant has no scenario name"
      in
      let probe = probe "ms" in
      let sc =
        match
          List.filter_map
            (fun mk ->
              let sc = (mk () : Explore.scenario) in
              if sc.Explore.name = sc_name then Some sc else None)
            probe.Compass_spec.Libspec.scenarios
        with
        | sc :: _ -> sc
        | [] -> Alcotest.failf "no probe scenario named %s" sc_name
      in
      let overrides = Audit.override_of s.Audit.site weakening in
      let config = { Machine.default_config with overrides } in
      let r = Explore.replay ~config sc witness.Explore.trace in
      Alcotest.(check int) "witness replays unclamped" 0 r.Explore.r_clamped;
      (match r.Explore.r_verdict with
      | Explore.Violation _ -> ()
      | Explore.Pass -> Alcotest.fail "witness script replayed to Pass"
      | Explore.Discard d -> Alcotest.failf "witness script discarded: %s" d);
      (* and without the weakening the same script is healthy *)
      let r =
        Explore.replay ~config:Machine.default_config sc witness.Explore.trace
      in
      Alcotest.(check int) "unweakened replay unclamped" 0 r.Explore.r_clamped;
      (match r.Explore.r_verdict with
      | Explore.Violation v ->
          Alcotest.failf "unweakened replay still violates: %s" v
      | _ -> ())
  | v ->
      Alcotest.failf "link_cas should be Necessary, got %s"
        (Audit.verdict_to_string v)

let suite =
  [
    Alcotest.test_case "races: agree with RC11 on the litmus battery" `Quick
      test_litmus_agreement;
    Alcotest.test_case "races: racy na litmus flagged by all detectors" `Quick
      test_racy_na_flagged;
    Alcotest.test_case "instrument: logs identical across engines (litmus)"
      `Quick test_incremental_logs_litmus;
    Alcotest.test_case "instrument: logs identical across engines (ms probe)"
      `Slow test_incremental_logs_queue;
    Alcotest.test_case "ms-weak: probe catches the violation" `Quick
      test_ms_weak_violates;
    Alcotest.test_case "ms-weak: audit baseline fails" `Slow
      test_ms_weak_baseline_fails;
    Alcotest.test_case "ms-weak: ms under relaxed publication" `Quick
      test_ms_weak_is_override;
    Alcotest.test_case "audit: link_cas is Necessary" `Slow
      test_audit_link_cas_necessary;
    Alcotest.test_case "audit: tail_help is Over_strong" `Slow
      test_audit_tail_help_over_strong;
    Alcotest.test_case "audit: witness replays to a violation" `Slow
      test_audit_witness_replays;
  ]
