open Compass_rmc
open Compass_machine
open Compass_dstruct
open Compass_clients
open Prog.Syntax

(* The exploration engine: the unreduced work-stealing DFS at several
   jobs must agree with the single-worker search field for field (under
   DPOR: on verdicts, completeness and violations), source-DPOR must
   explore strictly fewer executions without losing any violation or
   litmus verdict, and per-execution machines must be isolated enough to
   run on several domains at once.  The "sleep sets" named below are the
   ones the DPOR search installs, the only sleep sets the machine keeps. *)

let vi n = Value.Int n

let msgs (r : Explore.report) =
  List.sort compare (List.map (fun (f : Explore.failure) -> f.Explore.message) r.Explore.violations)

let scripts (r : Explore.report) =
  List.sort compare
    (List.map
       (fun (f : Explore.failure) -> Array.to_list (Explore.failure_script f))
       r.Explore.violations)

let report_eq ~name (a : Explore.report) (b : Explore.report) =
  Alcotest.(check int) (name ^ ": executions") a.Explore.executions b.Explore.executions;
  Alcotest.(check int) (name ^ ": passed") a.Explore.passed b.Explore.passed;
  Alcotest.(check int) (name ^ ": discarded") a.Explore.discarded b.Explore.discarded;
  Alcotest.(check int) (name ^ ": blocked") a.Explore.blocked b.Explore.blocked;
  Alcotest.(check int) (name ^ ": bounded") a.Explore.bounded b.Explore.bounded;
  Alcotest.(check int) (name ^ ": dpor_pruned") a.Explore.dpor_pruned b.Explore.dpor_pruned;
  Alcotest.(check bool) (name ^ ": complete") a.Explore.complete b.Explore.complete;
  Alcotest.(check (list string)) (name ^ ": violation multiset") (msgs a) (msgs b)

let distinct_msgs (r : Explore.report) = List.sort_uniq compare (msgs r)

(* What a DPOR search keeps at every job count: workers at jobs > 1 race
   on the shared DPOR nodes, so the execution count may differ (see
   [Explore.dfs]); verdicts, completeness and violation sets may not. *)
let check_equiv ~name (a : Explore.report) (b : Explore.report) =
  Alcotest.(check bool) (name ^ ": ok agrees") (Explore.ok a) (Explore.ok b);
  Alcotest.(check bool) (name ^ ": complete agrees") a.Explore.complete
    b.Explore.complete;
  Alcotest.(check (list string))
    (name ^ ": distinct violations agree")
    (distinct_msgs a) (distinct_msgs b)

(* Two searches at different job counts: field for field without a
   reduction, {!check_equiv} under DPOR. *)
let jobs_eq ~name reduce a b =
  if reduce = Machine.RNone then report_eq ~name a b else check_equiv ~name a b

let red_name = function
  | Machine.RNone -> "none"
  | Machine.RDpor -> "dpor"
  | Machine.RDporRf -> "dpor-rf"

(* For two drivers with the same enumeration order (e.g. incremental vs
   replay-from-root DFS) the kept violations must match script for
   script, not just message for message. *)
let report_eq_strict ~name a b =
  report_eq ~name a b;
  Alcotest.(check (list (list int)))
    (name ^ ": violation scripts (sorted)")
    (scripts a) (scripts b)

(* An intentionally broken scenario: MP over raw cells with a relaxed
   flag, where the stale read is reported as a violation.  The full DFS
   finds it, and so must every reduced or parallel variant.  A third
   thread hammers an unrelated location so there is genuine scheduling
   nondeterminism for the reduction to prune. *)
let seeded_mp_violation () =
  {
    Explore.name = "seeded-mp-rlx";
    build =
      (fun m ->
        let x = Machine.alloc m ~name:"x" ~init:(vi 0) 1 in
        let y = Machine.alloc m ~name:"y" ~init:(vi 0) 1 in
        let flag = Machine.alloc m ~name:"flag" ~init:(vi 0) 1 in
        let t1 =
          let* () = Prog.store x (vi 1) Mode.Rlx in
          let* () = Prog.store flag (vi 1) Mode.Rlx in
          Prog.return Value.Unit
        in
        let t2 =
          let* _ = Prog.await flag Mode.Rlx (Value.equal (vi 1)) in
          Prog.load x Mode.Rlx
        in
        let t3 =
          let* () = Prog.store y (vi 1) Mode.Rlx in
          let* () = Prog.store y (vi 2) Mode.Rlx in
          Prog.return Value.Unit
        in
        Machine.spawn m [ t1; t2; t3 ];
        function
        | Machine.Finished [| _; r2; _ |] ->
            if Value.equal r2 (vi 0) then Explore.Violation "stale read of x"
            else Explore.Pass
        | Machine.Finished _ -> Explore.Violation "arity"
        | Machine.Fault s -> Explore.Violation ("fault: " ^ s)
        | Machine.Blocked s -> Explore.Discard s
        | Machine.Bounded -> Explore.Discard "bounded"
        | Machine.Pruned -> Explore.Discard "pruned");
  }

(* The equivalence scenarios the spec asks for — MP clients of the
   Michael-Scott and Herlihy-Wing queues, a litmus test, and Treiber stack
   workloads — plus a seeded violation.  The 2-pusher Treiber tree has
   ~300k executions, so that one runs with reduction on both sides; the
   small Treiber covers the unreduced path. *)
let equivalence_cases () =
  [
    ( "mp-queue",
      Machine.RNone,
      fun () -> Mp.make Msqueue.instantiate (Mp.fresh_stats ()) );
    ( "hw-queue",
      Machine.RNone,
      fun () -> Mp.make Hwqueue.instantiate (Mp.fresh_stats ()) );
    ("litmus-sb", Machine.RNone, fun () -> (Litmus.sb ()).Litmus.scenario);
    ( "treiber-small",
      Machine.RNone,
      fun () ->
        Harness.stack_workload Treiber.instantiate ~pushers:1 ~poppers:1 ~ops:1 () );
    ( "treiber-reduced",
      Machine.RDpor,
      fun () ->
        Harness.stack_workload Treiber.instantiate ~pushers:2 ~poppers:1 ~ops:1 () );
    ("seeded-violation", Machine.RNone, fun () -> seeded_mp_violation ());
  ]

(* -- incremental vs replay-from-root differential suite ----------------------

   The incremental checkpoint/restore engine must be observationally
   identical to the replay-from-root oracle: same enumeration order, so
   every report field — including the kept violation scripts — must agree
   exactly, with and without DPOR, and under work stealing across jobs
   (per-worker engines). *)

let test_incremental_equivalence () =
  List.iter
    (fun (name, _, mk) ->
      List.iter
        (fun reduce ->
          let oracle =
            Explore.dfs ~incremental:false ~reduce ~max_execs:200_000 (mk ())
          in
          let inc =
            Explore.dfs ~incremental:true ~reduce ~max_execs:200_000 (mk ())
          in
          report_eq_strict
            ~name:(Printf.sprintf "%s (reduce %s)" name (red_name reduce))
            oracle inc)
        [ Machine.RNone; Machine.RDpor ])
    (equivalence_cases ())

(* A litmus verdict — pass/fail plus observation count — and its report
   are preserved by the incremental engine.  Litmus judges always pass,
   so the report alone cannot tell a corrupted history: the observation
   counts must agree too. *)
let litmus_incremental_eq ?config ?(reduce = Machine.RNone) mk =
  let t = mk () in
  let r_seq =
    Explore.dfs ~max_execs:100_000 ~reduce ~incremental:false ?config
      t.Litmus.scenario
  in
  let obs_seq = Atomic.get t.Litmus.observed in
  let ok_seq =
    Explore.ok r_seq
    &&
    match t.Litmus.expect with
    | `Observable -> obs_seq > 0
    | `Forbidden -> obs_seq = 0
  in
  let ok_inc, r_inc, obs_inc = Litmus.verdict ?config ~reduce (mk ()) in
  let name =
    Printf.sprintf "%s (reduce %s)" r_seq.Explore.name (red_name reduce)
  in
  Alcotest.(check bool) (name ^ ": verdict preserved incrementally") ok_seq
    ok_inc;
  Alcotest.(check int) (name ^ ": observation count preserved") obs_seq obs_inc;
  report_eq_strict ~name r_seq r_inc

let test_incremental_litmus () =
  List.iter litmus_incremental_eq
    [
      Litmus.sb; Litmus.sb_sc_fences; (fun () -> Litmus.mp ());
      Litmus.mp_fences; Litmus.corr; Litmus.cowr; Litmus.lb; Litmus.wrc;
      (fun () -> Litmus.faa_atomic ());
    ]

let test_incremental_gap () =
  (* Under [`Gap] timestamps a write may land between existing writes, so
     a restore must take midpoint writes back out, not just cut lengths. *)
  let config = { Machine.default_config with policy = `Gap } in
  List.iter
    (fun mk ->
      List.iter
        (fun reduce -> litmus_incremental_eq ~config ~reduce mk)
        [ Machine.RNone; Machine.RDpor ])
    [ Litmus.two_two_w; Litmus.coww; Litmus.corr; (fun () -> Litmus.sb ()) ]

let test_incremental_jobs () =
  (* Work stealing composes with checkpointing: each worker's engine only
     ever restores checkpoints along its own runs, so an incremental
     search at 4 jobs matches the replay-from-root single-worker search
     ({!jobs_eq}). *)
  List.iter
    (fun (name, reduce, mk) ->
      let oracle =
        Explore.dfs ~incremental:false ~reduce ~max_execs:200_000 (mk ())
      in
      let par =
        Explore.dfs ~jobs:4 ~incremental:true ~reduce ~max_execs:200_000
          (mk ())
      in
      jobs_eq ~name:(name ^ " (incremental jobs 4 vs replay jobs 1)") reduce
        oracle par)
    (equivalence_cases ())

let test_jobs_equivalence () =
  List.iter
    (fun (name, reduce, mk) ->
      let seq = Explore.dfs ~reduce ~max_execs:200_000 (mk ()) in
      Alcotest.(check bool) (name ^ ": sequential exhausts") true seq.Explore.complete;
      List.iter
        (fun jobs ->
          let par = Explore.dfs ~jobs ~reduce ~max_execs:200_000 (mk ()) in
          jobs_eq ~name:(Printf.sprintf "%s (jobs %d)" name jobs) reduce seq
            par)
        [ 2; 4 ])
    (equivalence_cases ())

let test_reduce_equivalence () =
  (* Reduced DFS: same verdict on every litmus test, and strictly fewer
     executions over the battery. *)
  let full_total = ref 0 and red_total = ref 0 in
  List.iter
    (fun mk ->
      let t_full = mk () and t_red = mk () in
      let ok_full, r_full, obs_full = Litmus.verdict t_full in
      let ok_red, r_red, _ = Litmus.verdict ~reduce:Machine.RDpor t_red in
      Alcotest.(check bool)
        (r_full.Explore.name ^ ": verdict preserved under reduction")
        ok_full ok_red;
      (match t_full.Litmus.expect with
      | `Observable ->
          Alcotest.(check bool)
            (r_full.Explore.name ^ ": observable outcome survives reduction")
            true
            (obs_full > 0)
      | `Forbidden -> ());
      full_total := !full_total + r_full.Explore.executions;
      red_total := !red_total + r_red.Explore.executions)
    [
      Litmus.sb; Litmus.sb_sc_fences; (fun () -> Litmus.mp ());
      Litmus.mp_fences; Litmus.corr; Litmus.cowr; Litmus.lb; Litmus.wrc;
      (fun () -> Litmus.faa_atomic ());
    ];
  Alcotest.(check bool)
    (Printf.sprintf "battery: reduced %d < full %d executions" !red_total !full_total)
    true
    (!red_total < !full_total)

let test_reduce_keeps_violations () =
  let full = Explore.dfs (seeded_mp_violation ()) in
  let red = Explore.dfs ~reduce:Machine.RDpor (seeded_mp_violation ()) in
  Alcotest.(check bool) "full DFS finds the seeded violation" false (Explore.ok full);
  Alcotest.(check bool) "reduced DFS finds it too" false (Explore.ok red);
  (* Reduction collapses equivalent violating interleavings to one
     representative, so instance counts shrink — but every distinct
     violation must survive. *)
  Alcotest.(check (list string)) "distinct violations preserved"
    (distinct_msgs full) (distinct_msgs red);
  Alcotest.(check bool) "reduction explored fewer executions" true
    (red.Explore.executions < full.Explore.executions)

let test_jobs_reduce () =
  (* Reduction composes with work stealing: the workers share the DPOR
     nodes, so the search keeps every violation however the tree is
     carved. *)
  let seq = Explore.dfs ~reduce:Machine.RDpor (seeded_mp_violation ()) in
  let par =
    Explore.dfs ~jobs:4 ~reduce:Machine.RDpor (seeded_mp_violation ())
  in
  check_equiv ~name:"reduced jobs 4 vs reduced jobs 1" seq par

let test_budget_exact () =
  (* A budget-limited search runs exactly [max_execs] executions whatever
     the job count and reduction: workers spend every budget slot they
     claimed before stopping.  Treiber with 2 pushers x 2 ops and a
     popper does not finish within 300 executions under any reduction
     (dpor-rf needs 405, one per rf-class). *)
  let budget = 300 in
  List.iter
    (fun reduce ->
      List.iter
        (fun jobs ->
          let r =
            Explore.dfs ~jobs ~reduce ~max_execs:budget
              (Harness.stack_workload Treiber.instantiate ~pushers:2
                 ~poppers:1 ~ops:2 ())
          in
          let name = Printf.sprintf "%s jobs %d" (red_name reduce) jobs in
          Alcotest.(check int) (name ^ ": executions = budget") budget
            r.Explore.executions;
          Alcotest.(check bool) (name ^ ": budget-limited") false
            r.Explore.complete)
        [ 1; 2; 4 ])
    [ Machine.RNone; Machine.RDpor; Machine.RDporRf ]

let test_domain_isolation () =
  (* Hammer two domains with allocation-heavy exploration concurrently;
     every per-execution machine must be isolated (the shared block-name
     registry is the one global, and it is mutex-guarded). *)
  let explore () = Explore.dfs ~max_execs:2_000 (Mp.make Msqueue.instantiate (Mp.fresh_stats ())) in
  let reference = explore () in
  let domains = Array.init 2 (fun _ -> Domain.spawn explore) in
  Array.iter
    (fun d -> report_eq ~name:"concurrent domain" reference (Domain.join d))
    domains

(* In the case names, "pdfs" is the parallel search ([Explore.dfs] at
   several jobs) and "dfs" the single-worker one. *)
let suite =
  [
    Alcotest.test_case "incremental == replay dfs (±reduce)" `Slow
      test_incremental_equivalence;
    Alcotest.test_case "incremental preserves litmus verdicts" `Quick
      test_incremental_litmus;
    Alcotest.test_case "incremental == replay under gap timestamps" `Quick
      test_incremental_gap;
    Alcotest.test_case "incremental pdfs == replay dfs" `Slow
      test_incremental_jobs;
    Alcotest.test_case "pdfs == dfs (3 scenarios + seeded violation)" `Slow
      test_jobs_equivalence;
    Alcotest.test_case "sleep sets preserve litmus verdicts" `Slow
      test_reduce_equivalence;
    Alcotest.test_case "sleep sets keep seeded violations" `Quick
      test_reduce_keeps_violations;
    Alcotest.test_case "reduced pdfs == reduced dfs" `Quick test_jobs_reduce;
    Alcotest.test_case "budget is exact at jobs 1/2/4 (all reductions)" `Quick
      test_budget_exact;
    Alcotest.test_case "two domains explore concurrently" `Slow
      test_domain_isolation;
  ]
