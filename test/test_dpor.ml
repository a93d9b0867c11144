open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Compass_clients
open Prog.Syntax

(* Source-DPOR differential suite.  The three reduction modes must agree
   on verdicts and on the set of distinct violations everywhere; the
   execution counts must be monotone (dpor <= sleep <= unreduced); and
   the DPOR integration must be engine-independent: replay-from-root,
   incremental at strides 1/2/5, and work stealing at 1/2/4 jobs all
   reach the same verdicts.

   "Total runs" below counts every machine run the search launched,
   completed or killed: sleep sets keep one execution per Mazurkiewicz
   trace but abort many partial redundant runs (report.pruned); DPOR's
   win is not starting them (a small dpor_pruned remainder). *)

let vi n = Value.Int n

let distinct_msgs (r : Explore.report) =
  List.sort_uniq compare
    (List.map (fun (f : Explore.failure) -> f.Explore.message) r.Explore.violations)

let total_runs (r : Explore.report) =
  r.Explore.executions + r.Explore.pruned + r.Explore.dpor_pruned

let check_equiv ~name (a : Explore.report) (b : Explore.report) =
  Alcotest.(check bool) (name ^ ": ok agrees") (Explore.ok a) (Explore.ok b);
  Alcotest.(check bool) (name ^ ": complete agrees") a.Explore.complete
    b.Explore.complete;
  Alcotest.(check (list string))
    (name ^ ": distinct violations agree")
    (distinct_msgs a) (distinct_msgs b)

let scenarios () =
  [
    ( "mp-queue",
      fun () -> Mp.make Msqueue.instantiate (Mp.fresh_stats ()) );
    ( "ms-weak",
      fun () -> Mp.make_weak Msqueue.instantiate (Mp.fresh_stats ()) );
    ( "hw-queue",
      fun () -> Mp.make Hwqueue.instantiate (Mp.fresh_stats ()) );
    ( "treiber",
      fun () ->
        Harness.stack_workload Treiber.instantiate ~pushers:2 ~poppers:1
          ~ops:1 () );
    ("seeded-violation", fun () -> Test_explore.seeded_mp_violation ());
  ]

(* -- dpor == sleep == unreduced on the client scenarios ----------------------- *)

let test_scenario_differential () =
  List.iter
    (fun (name, mk) ->
      let max_execs = 400_000 in
      let full = Explore.dfs ~max_execs (mk ()) in
      let sleep = Explore.dfs ~reduce:Machine.RSleep ~max_execs (mk ()) in
      let dpor = Explore.dfs ~reduce:Machine.RDpor ~max_execs (mk ()) in
      Alcotest.(check bool) (name ^ ": unreduced exhausts") true
        full.Explore.complete;
      check_equiv ~name:(name ^ " sleep vs unreduced") full sleep;
      check_equiv ~name:(name ^ " dpor vs unreduced") full dpor;
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor %d <= sleep %d executions" name
           dpor.Explore.executions sleep.Explore.executions)
        true
        (dpor.Explore.executions <= sleep.Explore.executions);
      Alcotest.(check bool)
        (Printf.sprintf "%s: sleep %d <= unreduced %d executions" name
           sleep.Explore.executions full.Explore.executions)
        true
        (sleep.Explore.executions <= full.Explore.executions);
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor launches %d <= sleep's %d runs" name
           (total_runs dpor) (total_runs sleep))
        true
        (total_runs dpor <= total_runs sleep))
    (scenarios ())

(* -- engine independence: ±incremental, strides, parallel jobs ---------------- *)

let test_engine_independence () =
  List.iter
    (fun (name, mk) ->
      let max_execs = 400_000 in
      let reference =
        Explore.dfs ~reduce:Machine.RDpor ~max_execs (mk ())
      in
      let replay =
        Explore.dfs ~reduce:Machine.RDpor ~incremental:false ~max_execs
          (mk ())
      in
      (* One driver, one task order: the replay engine and every stride
         must reproduce the sequential search count for count. *)
      check_equiv ~name:(name ^ " dpor replay-from-root") reference replay;
      Alcotest.(check int)
        (name ^ ": replay executions")
        reference.Explore.executions replay.Explore.executions;
      List.iter
        (fun stride ->
          let inc =
            Explore.dfs ~reduce:Machine.RDpor ~stride ~max_execs (mk ())
          in
          check_equiv
            ~name:(Printf.sprintf "%s dpor stride %d" name stride)
            reference inc;
          Alcotest.(check int)
            (Printf.sprintf "%s: stride %d executions" name stride)
            reference.Explore.executions inc.Explore.executions)
        [ 1; 2; 5 ];
      (* Parallel workers race on the shared DPOR nodes, so the count may
         wobble; verdicts, violation sets and completeness may not. *)
      List.iter
        (fun jobs ->
          let par =
            Explore.dfs ~jobs ~reduce:Machine.RDpor ~max_execs (mk ())
          in
          check_equiv
            ~name:(Printf.sprintf "%s dpor jobs %d" name jobs)
            reference par)
        [ 1; 2; 4 ])
    (scenarios ())

(* -- litmus battery: verdicts preserved, counts monotone ---------------------- *)

let test_litmus_differential () =
  List.iter
    (fun mk ->
      let t_full = mk () and t_sleep = mk () and t_dpor = mk () in
      let ok_full, r_full, _ = Litmus.verdict t_full in
      let ok_sleep, r_sleep, _ =
        Litmus.verdict ~reduce:Machine.RSleep t_sleep
      in
      let ok_dpor, r_dpor, _ = Litmus.verdict ~reduce:Machine.RDpor t_dpor in
      let name = r_full.Explore.name in
      Alcotest.(check bool) (name ^ ": sleep verdict") ok_full ok_sleep;
      Alcotest.(check bool) (name ^ ": dpor verdict") ok_full ok_dpor;
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor %d <= sleep %d <= full %d" name
           r_dpor.Explore.executions r_sleep.Explore.executions
           r_full.Explore.executions)
        true
        (r_dpor.Explore.executions <= r_sleep.Explore.executions
        && r_sleep.Explore.executions <= r_full.Explore.executions))
    (List.map (fun t () -> t) (Litmus.all ()))

(* -- reads-from classes: dpor-rf counts one execution per rf⊕mo graph --------- *)

(* Exhaustive census: wrap a scenario so every counted (non-[Pruned])
   run records its {!Explore.rf_class_key} into [classes].  Run under
   [RNone] with access recording on, the table afterwards holds every
   distinct execution graph the scenario can produce — the ground truth
   [--reduce=dpor-rf] must match exactly. *)
let census_config = { Machine.default_config with Machine.record_accesses = true }

let with_census classes (sc : Explore.scenario) =
  {
    sc with
    Explore.build =
      (fun m ->
        let judge = sc.Explore.build m in
        fun outcome ->
          (match outcome with
          | Machine.Pruned -> ()
          | _ ->
              Hashtbl.replace classes
                (Explore.rf_class_key ~outcome (Machine.accesses m))
                ());
          judge outcome);
  }

let rf_census_litmus () =
  [
    ("corr", Litmus.corr);
    ("cowr", Litmus.cowr);
    ("sb", fun () -> Litmus.sb ());
    ("iriw", Litmus.iriw);
  ]

let test_rf_census () =
  List.iter
    (fun (name, mk) ->
      let max_execs = 400_000 in
      let classes = Hashtbl.create 64 in
      let t = mk () in
      let full =
        Explore.dfs ~config:census_config ~max_execs
          (with_census classes t.Litmus.scenario)
      in
      Alcotest.(check bool) (name ^ ": exhaustive census complete") true
        full.Explore.complete;
      let n_classes = Hashtbl.length classes in
      Alcotest.(check bool) (name ^ ": some classes observed") true
        (n_classes > 0);
      (* dpor-rf counts exactly one execution per distinct class, and
         books every duplicate completed run as rf_pruned *)
      let rf =
        Explore.dfs ~reduce:Machine.RDporRf ~max_execs (mk ()).Litmus.scenario
      in
      Alcotest.(check bool) (name ^ ": dpor-rf complete") true
        rf.Explore.complete;
      Alcotest.(check int)
        (Printf.sprintf "%s: one execution per rf-class (census %d)" name
           n_classes)
        n_classes rf.Explore.executions;
      (* the same census through the replay-from-root engine and the
         parallel driver: the class count is enumeration-order
         independent *)
      let replay =
        Explore.dfs ~reduce:Machine.RDporRf ~incremental:false ~max_execs
          (mk ()).Litmus.scenario
      in
      Alcotest.(check int)
        (name ^ ": replay-from-root counts the same classes")
        n_classes replay.Explore.executions;
      List.iter
        (fun jobs ->
          let par =
            Explore.dfs ~jobs ~reduce:Machine.RDporRf ~max_execs
              (mk ()).Litmus.scenario
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: dpor-rf jobs %d complete" name jobs)
            true par.Explore.complete;
          Alcotest.(check int)
            (Printf.sprintf "%s: dpor-rf jobs %d counts the same classes" name
               jobs)
            n_classes par.Explore.executions)
        [ 1; 2 ])
    (rf_census_litmus ())

(* dpor-rf must keep every litmus verdict of plain dpor while never
   counting more executions. *)
let test_rf_litmus_verdicts () =
  List.iter
    (fun mk ->
      let ok_dpor, r_dpor, _ = Litmus.verdict ~reduce:Machine.RDpor (mk ()) in
      let ok_rf, r_rf, _ = Litmus.verdict ~reduce:Machine.RDporRf (mk ()) in
      let name = r_rf.Explore.name in
      Alcotest.(check bool) (name ^ ": dpor-rf verdict") ok_dpor ok_rf;
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor-rf %d <= dpor %d executions" name
           r_rf.Explore.executions r_dpor.Explore.executions)
        true
        (r_rf.Explore.executions <= r_dpor.Explore.executions))
    (List.map (fun t () -> t) (Litmus.all ()))

(* Client scenarios and every registry smoke workload: verdicts and
   distinct violation sets agree with plain dpor; the rf pass only ever
   removes counted duplicates. *)
let test_rf_scenario_differential () =
  List.iter
    (fun (name, mk) ->
      let max_execs = 400_000 in
      let dpor = Explore.dfs ~reduce:Machine.RDpor ~max_execs (mk ()) in
      let rf = Explore.dfs ~reduce:Machine.RDporRf ~max_execs (mk ()) in
      check_equiv ~name:(name ^ " dpor-rf vs dpor") dpor rf;
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor-rf %d <= dpor %d executions" name
           rf.Explore.executions dpor.Explore.executions)
        true
        (rf.Explore.executions <= dpor.Explore.executions))
    (scenarios ())

let test_rf_registry_smoke () =
  List.iter
    (fun (e : Libspec.entry) ->
      let dpor =
        Explore.dfs ~max_execs:8_000 ~reduce:Machine.RDpor (e.Libspec.smoke ())
      in
      let rf =
        Explore.dfs ~max_execs:8_000 ~reduce:Machine.RDporRf
          (e.Libspec.smoke ())
      in
      Alcotest.(check bool)
        (e.Libspec.key ^ ": dpor-rf smoke verdict")
        (dpor.Explore.violations <> [])
        (rf.Explore.violations <> []);
      Alcotest.(check (list string))
        (e.Libspec.key ^ ": dpor-rf distinct violations")
        (distinct_msgs dpor) (distinct_msgs rf);
      Alcotest.(check bool)
        (Printf.sprintf "%s: dpor-rf %d <= dpor %d executions" e.Libspec.key
           rf.Explore.executions dpor.Explore.executions)
        true
        (rf.Explore.executions <= dpor.Explore.executions))
    (Specreg.all ())

(* -- hand-computed optimum: three threads, one write race --------------------- *)

(* t0 and t1 write the same location (dependent), t2 writes another
   (independent of both); no data nondeterminism under the Append
   policy.  6 interleavings, but only the t0/t1 order matters: exactly 2
   Mazurkiewicz traces.  An optimal DPOR explores 2 executions and kills
   none; sleep sets also keep 2 but only by aborting redundant runs. *)
let write_race_scenario () =
  {
    Explore.name = "write-race-3t";
    build =
      (fun m ->
        let a = Machine.alloc m ~name:"a" ~init:(vi 0) 1 in
        let b = Machine.alloc m ~name:"b" ~init:(vi 0) 1 in
        let wr loc v =
          let* () = Prog.store loc (vi v) Mode.Rel in
          Prog.return Value.Unit
        in
        Machine.spawn m [ wr a 1; wr a 2; wr b 1 ];
        function
        | Machine.Finished _ -> Explore.Pass
        | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
        | Machine.Blocked s -> Explore.Discard s
        | Machine.Bounded -> Explore.Discard "bounded"
        | Machine.Pruned -> Explore.Discard "pruned");
  }

let test_optimal_count () =
  let full = Explore.dfs (write_race_scenario ()) in
  let sleep = Explore.dfs ~reduce:Machine.RSleep (write_race_scenario ()) in
  let dpor = Explore.dfs ~reduce:Machine.RDpor (write_race_scenario ()) in
  Alcotest.(check int) "unreduced: 3! interleavings" 6 full.Explore.executions;
  Alcotest.(check bool) "unreduced complete" true full.Explore.complete;
  Alcotest.(check int) "sleep: one per trace" 2 sleep.Explore.executions;
  Alcotest.(check int) "dpor: one per trace" 2 dpor.Explore.executions;
  Alcotest.(check int) "dpor: optimal — nothing killed" 0
    dpor.Explore.dpor_pruned;
  Alcotest.(check bool) "dpor complete" true dpor.Explore.complete;
  (* The same optimum through the replay engine and the parallel driver. *)
  let replay =
    Explore.dfs ~reduce:Machine.RDpor ~incremental:false
      (write_race_scenario ())
  in
  Alcotest.(check int) "dpor replay: one per trace" 2 replay.Explore.executions;
  let par = Explore.dfs ~jobs:2 ~reduce:Machine.RDpor (write_race_scenario ()) in
  Alcotest.(check bool) "dpor jobs=2 complete" true par.Explore.complete;
  Alcotest.(check int) "dpor jobs=2 passed everything" par.Explore.executions
    par.Explore.passed

(* -- acceptance: the E1 MP-queue client ---------------------------------------

   [--reduce=dpor] must finish the MP-queue client launching strictly
   fewer machine runs than sleep sets, with the same (empty) violation
   set and a complete search. *)
let test_acceptance_mp_queue () =
  let mk () = Mp.make Msqueue.instantiate (Mp.fresh_stats ()) in
  let sleep = Explore.dfs ~reduce:Machine.RSleep ~max_execs:400_000 (mk ()) in
  let dpor = Explore.dfs ~reduce:Machine.RDpor ~max_execs:400_000 (mk ()) in
  Alcotest.(check bool) "dpor completes" true dpor.Explore.complete;
  Alcotest.(check (list string))
    "identical violation set" (distinct_msgs sleep) (distinct_msgs dpor);
  Alcotest.(check bool)
    (Printf.sprintf "dpor launches %d < sleep's %d runs" (total_runs dpor)
       (total_runs sleep))
    true
    (total_runs dpor < total_runs sleep)

(* -- the dependency layer itself ---------------------------------------------- *)

let test_deps_relation () =
  let open Deps in
  let m = Machine.create () in
  let a = Machine.alloc m ~name:"a" ~init:(vi 0) 1 in
  let b = Machine.alloc m ~name:"b" ~init:(vi 0) 1 in
  Alcotest.(check bool) "local/local commute" true (independent FLocal FLocal);
  Alcotest.(check bool) "local/global: global dominates" false
    (independent FLocal FGlobal);
  Alcotest.(check bool) "reads of one location commute" true
    (independent (FRead a) (FRead a));
  Alcotest.(check bool) "write/read of one location conflict" false
    (independent (FWrite a) (FRead a));
  Alcotest.(check bool) "distinct locations commute" true
    (independent (FWrite a) (FWrite b));
  (* A 3-step log: two writes to [a] by different threads with an
     independent write to [b] between them — one direct reversible race,
     (0, 2). *)
  let s =
    analyze_steps [| (0, FWrite a); (1, FWrite b); (2, FWrite a) |]
  in
  Alcotest.(check bool) "conflicting writes trace-ordered" true (hb s 0 2);
  Alcotest.(check bool) "disjoint write unordered" false (hb s 0 1);
  Alcotest.(check (list (pair int int))) "one direct race" [ (0, 2) ] (races s);
  Alcotest.(check (list (pair int int)))
    "races before [from] dropped" [] (races ~from:3 s);
  (* With a conflicting step between them the race is indirect: the
     reversal is reached through the adjacent reversals instead. *)
  let u =
    analyze_steps [| (0, FWrite a); (1, FWrite a); (2, FWrite a) |]
  in
  Alcotest.(check (list (pair int int)))
    "only adjacent races are direct"
    [ (0, 1); (1, 2) ]
    (races u);
  (* Same-thread steps are program-ordered but never a race. *)
  let t = analyze_steps [| (0, FWrite a); (0, FWrite a) |] in
  Alcotest.(check bool) "po orders same thread" true (hb t 0 1);
  Alcotest.(check (list (pair int int))) "po is not a race" [] (races t)

let suite =
  [
    Alcotest.test_case "deps: independence, trace order, races" `Quick
      test_deps_relation;
    Alcotest.test_case "3-thread write race: dpor hits the optimum" `Quick
      test_optimal_count;
    Alcotest.test_case "dpor == sleep == unreduced (clients)" `Slow
      test_scenario_differential;
    Alcotest.test_case "dpor engine-independent (±inc, strides, jobs)" `Slow
      test_engine_independence;
    Alcotest.test_case "dpor preserves litmus verdicts" `Slow
      test_litmus_differential;
    Alcotest.test_case "acceptance: mp-queue dpor < sleep runs" `Quick
      test_acceptance_mp_queue;
    Alcotest.test_case "dpor-rf == exhaustive rf-class census (litmus)" `Slow
      test_rf_census;
    Alcotest.test_case "dpor-rf preserves litmus verdicts" `Slow
      test_rf_litmus_verdicts;
    Alcotest.test_case "dpor-rf == dpor verdicts (clients)" `Slow
      test_rf_scenario_differential;
    Alcotest.test_case "dpor-rf == dpor verdicts (registry smoke)" `Slow
      test_rf_registry_smoke;
  ]
