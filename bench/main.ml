(* COMPASS-OCaml benchmark harness: the machine-readable ledgers.

   Each mode measures one subsystem and writes its [BENCH_*.json] ledger
   into the current directory; [--check] turns the mode's gates into the
   exit code.  [--explore]: exploration throughput per engine, reduction
   and job count.  [--fuzz]: PCT and coverage-guided fuzzing against
   uniform sampling.  [--static]: the statically prioritised audit order
   against declaration order.  [--sim]: forward-simulation verdicts over
   the most-general clients.  End-to-end time to a verdict is measured by
   [bench/suite]. *)

open Compass_rmc
open Compass_machine
open Compass_clients
open Compass_util
module Fz = Compass_fuzz

(* Structures resolve through the central spec registry, like the CLI. *)
let queue_factory key =
  match Specreg.find key with
  | Some { Compass_spec.Libspec.impl = Specreg.Queue f; _ } -> f
  | _ -> failwith ("no registered queue implementation: " ^ key)

let stack_factory key =
  match Specreg.find key with
  | Some { Compass_spec.Libspec.impl = Specreg.Stack f; _ } -> f
  | _ -> failwith ("no registered stack implementation: " ^ key)

(* -- explore-throughput mode (--explore [--quick] [--check]) -------------------

   Machine-readable exploration throughput, written to BENCH_explore.json:
   for each scenario,

   - "sequential"          — replay-from-root DFS ([~incremental:false]),
                             the differential-testing oracle;
   - "incremental"         — the default checkpoint/restore engine, one
                             worker;
   - "incremental_dpor"    — the same engine under source-DPOR with
                             wakeup sequences, with its runs per second
                             (executions plus dpor-pruned runs) and their
                             ratio to the "incremental" row's executions
                             per second;
   - "jobs"                — the same driver at 2 and 4 domains (each
                             worker owns a per-domain incremental
                             engine); its one-domain row is
                             "incremental".

   The DPOR row carries a "reduction_factor" column: full-tree executions
   over reduced executions (higher = stronger reduction).

   The report fields are exact whatever the mode; wall-clock speedups
   depend on the host.  Multi-domain rows are skipped (and marked as
   such) when the host recommends fewer domains than they use — a
   1-core box cannot exhibit parallel speedup, only scheduling noise.  [--check] exits
   nonzero if the incremental engine is slower than sequential replay on
   any scenario, or if DPOR stops finishing the mp-queue and hw-queue
   searches that the unreduced engine cannot finish within the budget:
   the CI perf-smoke gate. *)

let write_json_file file json =
  let s = Report.to_string ~tool:"bench" json in
  let oc = open_out file in
  output_string oc s;
  close_out oc;
  print_string s;
  Format.printf "wrote %s@." file

(* Timed run with allocation telemetry: wall clock plus [Gc.quick_stat]
   deltas (minor words allocated, major collections forced) — the
   flat-buffer core is judged on allocation per execution as much as on
   throughput.  On OCaml 5.1 [minor_words] only advances at a minor
   collection, so each reading empties the minor heap first; otherwise
   a reading lags by up to a minor heap's worth of words, and repeated
   runs disagree. *)
let time_gc f =
  let stat () =
    Gc.minor ();
    Gc.quick_stat ()
  in
  let g0 = stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t = Unix.gettimeofday () -. t0 in
  let g1 = stat () in
  ( r,
    t,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

let bench_explore ~quick ~check ~force_jobs =
  let max_execs = if quick then 2_000 else 20_000 in
  let scenarios =
    [
      ( "mp-queue",
        fun () -> Mp.make (queue_factory "ms") (Mp.fresh_stats ()) );
      ( "hw-queue",
        fun () ->
          Harness.queue_workload (queue_factory "hw") ~enqers:2 ~deqers:1
            ~ops:1 () );
      ( "treiber",
        fun () ->
          Harness.stack_workload (stack_factory "treiber") ~pushers:2
            ~poppers:1 ~ops:2 () );
    ]
  in
  (* The host's usable parallelism.  [recommended_domain_count] reflects
     the actual CPU budget (cgroup/affinity aware), unlike raw core
     counts; [--force-jobs] runs the multi-domain rows anyway — useful
     for differential correctness runs on starved hosts, meaningless for
     speedup numbers. *)
  let domains = Domain.recommended_domain_count () in
  let rate (r : Explore.report) t =
    if t > 0. then float_of_int r.Explore.executions /. t else 0.
  in
  let slow = ref []
  and inc_speedups = ref []
  and dpor_finishes = ref []
  and scale4 = ref [] in
  let run_row (r : Explore.report) (t, minor, majors) extra =
    let per_exec x = x /. float_of_int (max 1 r.Explore.executions) in
    Jsonout.Obj
      ([
         ("executions", Jsonout.Int r.Explore.executions);
         ("complete", Jsonout.Bool r.Explore.complete);
         ("seconds", Jsonout.Float t);
         ("execs_per_sec", Jsonout.Float (rate r t));
         ("minor_words_per_exec", Jsonout.Float (per_exec minor));
         ("major_collections", Jsonout.Int majors);
       ]
      @ extra)
  in
  let scenario_json (name, mk) =
    let seq, seq_t, seq_mw, seq_mc =
      time_gc (fun () -> Explore.dfs ~max_execs ~incremental:false (mk ()))
    in
    let inc, inc_t, inc_mw, inc_mc =
      time_gc (fun () -> Explore.dfs ~max_execs (mk ()))
    in
    if rate inc inc_t < rate seq seq_t then slow := name :: !slow;
    inc_speedups :=
      (name, if rate seq seq_t > 0. then rate inc inc_t /. rate seq seq_t else 0.)
      :: !inc_speedups;
    let speedup t =
      ( "speedup_vs_sequential",
        Jsonout.Float (if t > 0. then seq_t /. t else 0.) )
    in
    let jobs_row jobs =
      if domains < jobs && not force_jobs then begin
        let why =
          Printf.sprintf
            "host recommends %d domain(s); rerun with --force-jobs for a \
             correctness (not speedup) row"
            domains
        in
        Format.eprintf "bench: %s: skipping jobs=%d row: %s@." name jobs why;
        Jsonout.Obj
          [ ("jobs", Jsonout.Int jobs); ("skipped", Jsonout.Str why) ]
      end
      else begin
        let r, t, mw, mc =
          time_gc (fun () -> Explore.dfs ~jobs ~max_execs (mk ()))
        in
        if jobs = 4 && domains >= 4 && t > 0. then
          scale4 := (name, inc_t /. t) :: !scale4;
        let forced =
          if domains < jobs then [ ("forced", Jsonout.Bool true) ] else []
        in
        match run_row r (t, mw, mc) (speedup t :: forced) with
        | Jsonout.Obj fields ->
            Jsonout.Obj (("jobs", Jsonout.Int jobs) :: fields)
        | j -> j
      end
    in
    let jobs_rows = List.map jobs_row [ 2; 4 ] in
    let dpor, dpor_t, dpor_mw, dpor_mc =
      time_gc (fun () ->
          Explore.dfs ~reduce:Machine.RDpor ~max_execs (mk ()))
    in
    (* reduction_factor: full-tree executions per reduced execution. *)
    let factor (r : Explore.report) =
      float_of_int (max 1 seq.Explore.executions)
      /. float_of_int (max 1 r.Explore.executions)
    in
    dpor_finishes := (name, inc, dpor) :: !dpor_finishes;
    (* DPOR's cost per run: pruned runs are runs too, and the ratio to the
       unreduced incremental engine's rate is what a DPOR overhead gate
       would bound. *)
    let dpor_runs (r : Explore.report) t =
      let runs_per_sec =
        if t > 0. then
          float_of_int (r.Explore.executions + r.Explore.dpor_pruned) /. t
        else 0.
      in
      let inc_rate = rate inc inc_t in
      [
        ("runs_per_sec", Jsonout.Float runs_per_sec);
        ( "runs_vs_incremental",
          Jsonout.Float (if inc_rate > 0. then runs_per_sec /. inc_rate else 0.)
        );
      ]
    in
    let reduced_extra r rt =
      [
        ( "execs_vs_full",
          Jsonout.Float
            (float_of_int r.Explore.executions
            /. float_of_int (max 1 seq.Explore.executions)) );
        ("reduction_factor", Jsonout.Float (factor r));
        speedup rt;
      ]
    in
    Jsonout.Obj
      [
        ("name", Jsonout.Str name);
        ("sequential", run_row seq (seq_t, seq_mw, seq_mc) []);
        ("incremental", run_row inc (inc_t, inc_mw, inc_mc) [ speedup inc_t ]);
        ("jobs", Jsonout.List jobs_rows);
        ( "incremental_dpor",
          run_row dpor (dpor_t, dpor_mw, dpor_mc)
            (("dpor_pruned", Jsonout.Int dpor.Explore.dpor_pruned)
            :: (dpor_runs dpor dpor_t @ reduced_extra dpor dpor_t)) );
      ]
  in
  (* -- reads-from reduction rows -------------------------------------
     Data-heavy litmus tests where interleaving enumeration repeats
     execution graphs: the exhaustive rf-class census (one key per
     distinct rf⊕mo graph, via {!Explore.rf_class_key}) is the ground
     truth; [--reduce=dpor-rf] must count at most dpor's executions,
     reach the same verdict, and — the acceptance row, CoRR — exactly
     one execution per class. *)
  let census_config =
    { Machine.default_config with Machine.record_accesses = true }
  in
  let rf_litmus =
    [
      ("CoRR", Litmus.corr);
      ("SB", fun () -> Litmus.sb ());
      ("IRIW", Litmus.iriw);
    ]
  in
  let rf_gate = ref [] in
  let rf_row (name, (mk : unit -> Litmus.t)) =
    let classes = Hashtbl.create 64 in
    let t = mk () in
    let censused =
      {
        t.Litmus.scenario with
        Explore.build =
          (fun m ->
            let judge = t.Litmus.scenario.Explore.build m in
            fun outcome ->
              (match outcome with
              | Machine.Pruned -> ()
              | _ ->
                  Hashtbl.replace classes
                    (Explore.rf_class_key ~outcome (Machine.accesses m))
                    ());
              judge outcome);
      }
    in
    let full = Explore.dfs ~config:census_config ~max_execs censused in
    let rf_classes = Hashtbl.length classes in
    let ok_dpor, dpor, _ =
      Litmus.verdict ~max_execs ~reduce:Machine.RDpor (mk ())
    in
    let (ok_rf, rf, _), rf_t, _, _ =
      time_gc (fun () ->
          Litmus.verdict ~max_execs ~reduce:Machine.RDporRf (mk ()))
    in
    rf_gate :=
      (name, ok_dpor, ok_rf, dpor.Explore.executions, rf.Explore.executions,
       rf_classes, full.Explore.complete && rf.Explore.complete)
      :: !rf_gate;
    Jsonout.Obj
      [
        ("name", Jsonout.Str name);
        ("rf_classes", Jsonout.Int rf_classes);
        ("executions_full", Jsonout.Int full.Explore.executions);
        ("executions_dpor", Jsonout.Int dpor.Explore.executions);
        ("executions_dpor_rf", Jsonout.Int rf.Explore.executions);
        ("rf_pruned", Jsonout.Int rf.Explore.rf_pruned);
        ("verdict_dpor", Jsonout.Bool ok_dpor);
        ("verdict_dpor_rf", Jsonout.Bool ok_rf);
        ("complete", Jsonout.Bool (full.Explore.complete && rf.Explore.complete));
        ("seconds_dpor_rf", Jsonout.Float rf_t);
        ( "reduction_factor_vs_dpor",
          Jsonout.Float
            (float_of_int (max 1 dpor.Explore.executions)
            /. float_of_int (max 1 rf.Explore.executions)) );
      ]
  in
  let rf_rows = List.map rf_row rf_litmus in
  let json =
    Jsonout.Obj
      [
        ("max_execs", Jsonout.Int max_execs);
        ("quick", Jsonout.Bool quick);
        ( "host",
          Jsonout.Obj
            ([
               ("recommended_domains", Jsonout.Int domains);
               ("forced_jobs", Jsonout.Bool force_jobs);
               ("ocaml", Jsonout.Str Sys.ocaml_version);
             ]
            @
            if domains >= 4 then []
            else
              [
                ( "scaling_note",
                  Jsonout.Str
                    (Printf.sprintf
                       "host recommends %d domain(s): multi-domain rows are \
                        correctness measurements only (forced via \
                        --force-jobs), and multi-domain speedup cannot be \
                        expressed on this hardware"
                       domains) );
              ]) );
        ("scenarios", Jsonout.List (List.map scenario_json scenarios));
        ("rf_reduction", Jsonout.List rf_rows);
      ]
  in
  write_json_file "BENCH_explore.json" json;
  if check then begin
    let failed = ref false in
    (match !slow with
    | [] -> Format.printf "perf-smoke: incremental >= sequential everywhere@."
    | l ->
        Format.printf
          "perf-smoke FAILED: incremental slower than sequential on: %s@."
          (String.concat ", " (List.rev l));
        failed := true);
    (* The within-run incremental-vs-sequential speedup is the headline
       same-host ratio (measured 3.9-5.1x on the reference container):
       it is what the flat data plane buys end to end, because the
       unboxed length-array snapshots are what make checkpoint-per-
       decision affordable.  Gate at 2x to leave noise margin. *)
    let min_inc_speedup = 2.0 in
    List.iter
      (fun (name, s) ->
        if s < min_inc_speedup then begin
          Format.printf
            "perf-smoke FAILED: incremental only %.2fx sequential on %s (gate \
             %.1fx)@."
            s name min_inc_speedup;
          failed := true
        end
        else
          Format.printf "perf-smoke: incremental %.2fx sequential on %s@." s
            name)
      (List.rev !inc_speedups);
    (* On mp-queue and hw-queue the unreduced tree outgrows the budget
       (even --quick's 2,000), while DPOR finishes it (in 51 and 652
       executions): the reduction must still turn a budget-limited
       search into a complete one with the same verdict. *)
    List.iter
      (fun (name, (inc : Explore.report), (dpor : Explore.report)) ->
        if List.mem name [ "mp-queue"; "hw-queue" ] then
          if
            dpor.Explore.complete
            && (not inc.Explore.complete)
            && Explore.ok dpor = Explore.ok inc
          then
            Format.printf
              "perf-smoke: dpor completes %s in %d executions; unreduced \
               stops at the %d budget, same verdict@."
              name dpor.Explore.executions inc.Explore.executions
          else begin
            Format.printf
              "perf-smoke FAILED: on %s dpor complete=%b ok=%b, unreduced \
               complete=%b ok=%b (want a complete dpor search where the \
               unreduced one stops at the budget, same verdict)@."
              name dpor.Explore.complete (Explore.ok dpor)
              inc.Explore.complete (Explore.ok inc);
            failed := true
          end)
      (List.rev !dpor_finishes);
    (* Multi-domain scaling gates only where the host can express it. *)
    if domains >= 4 then
      List.iter
        (fun (name, s) ->
          if s < 2.5 then begin
            Format.printf
              "perf-smoke FAILED: jobs=4 only %.2fx incremental (jobs=1) on \
               %s (gate 2.5x)@."
              s name;
            failed := true
          end
          else
            Format.printf
              "perf-smoke: jobs=4 is %.2fx incremental (jobs=1) on %s@." s name)
        (List.rev !scale4)
    else
      Format.printf
        "perf-smoke: scaling gate waived (host recommends %d domain(s), need \
         >= 4)@."
        domains;
    (* dpor-rf must never count more runs than dpor, must agree on every
       verdict, and on a complete search must count exactly one
       execution per distinct rf-class (the CoRR acceptance row). *)
    List.iter
      (fun (name, ok_dpor, ok_rf, ex_dpor, ex_rf, classes, complete) ->
        if ok_rf <> ok_dpor then begin
          Format.printf
            "perf-smoke FAILED: dpor-rf verdict differs from dpor on %s@." name;
          failed := true
        end;
        if ex_rf > ex_dpor then begin
          Format.printf
            "perf-smoke FAILED: dpor-rf counted %d > dpor's %d executions on \
             %s@."
            ex_rf ex_dpor name;
          failed := true
        end;
        if complete && ex_rf <> classes then begin
          Format.printf
            "perf-smoke FAILED: dpor-rf counted %d executions over %d \
             rf-classes on %s@."
            ex_rf classes name;
          failed := true
        end;
        if not !failed then
          Format.printf
            "perf-smoke: dpor-rf %s: %d executions == %d rf-classes (dpor: \
             %d)@."
            name ex_rf classes ex_dpor)
      (List.rev !rf_gate);
    (* trace-compat: a pinned legacy v1 witness script must parse, lift,
       round-trip through the v2 line format, and replay to the
       byte-identical outcome. *)
    begin
      let legacy = "1 0 2 0 1 0 3 0 1" in
      let outcome_of tr =
        let t = Litmus.corr () in
        let r = Explore.replay ~config:Machine.default_config t.Litmus.scenario tr in
        Format.asprintf "%a/%d" Machine.pp_outcome r.Explore.r_outcome
          r.Explore.r_clamped
      in
      match Decision.of_line legacy with
      | None ->
          Format.printf "perf-smoke FAILED: legacy v1 fixture did not parse@.";
          failed := true
      | Some v1 -> (
          let direct =
            Decision.of_ints
              (Array.of_list
                 (List.map int_of_string (String.split_on_char ' ' legacy)))
          in
          if not (Decision.equal_trace v1 direct) then begin
            Format.printf
              "perf-smoke FAILED: legacy v1 fixture lifts differently@.";
            failed := true
          end;
          match Decision.of_line (Decision.to_line v1) with
          | None ->
              Format.printf
                "perf-smoke FAILED: v2 round-trip of legacy fixture did not \
                 parse@.";
              failed := true
          | Some v2 ->
              let o1 = outcome_of v1 and o2 = outcome_of v2 in
              if o1 <> o2 then begin
                Format.printf
                  "perf-smoke FAILED: legacy fixture replays %s but its v2 \
                   form replays %s@."
                  o1 o2;
                failed := true
              end
              else
                Format.printf
                  "perf-smoke: trace-compat: legacy fixture and v2 form both \
                   replay %s@."
                  o1)
    end;
    if !failed then exit 1
  end

(* -- fuzz-comparison mode (--fuzz [--quick] [--check]) -------------------------

   Time-to-first-violation comparison of the fuzzing strategies, written
   to BENCH_fuzz.json: for each violating target (the deliberately weak
   MS queue, plus litmus tests whose distinguished weak outcome we hunt
   as if it were a bug), run each mode over a batch of seeds and compare
   the median number of executions to the first violation (deterministic
   per seed) and the median wall-clock seconds (host-dependent).  A trial
   that exhausts its budget without a violation counts as the full budget
   (censored).  [--check] exits nonzero if neither PCT nor the
   coverage-guided mode beats-or-ties uniform random on the ms-weak
   median: the CI fuzz-smoke gate. *)

let bench_fuzz ~quick ~check =
  let budget = if quick then 2_000 else 10_000 in
  let seeds = List.init (if quick then 7 else 15) (fun i -> 100 + i) in
  (* Hunt a litmus test's distinguished weak outcome as a "violation":
     the judge flags any execution that bumps the observation counter. *)
  let hunt name (mk_t : unit -> Litmus.t) () =
    let t = mk_t () in
    let before = ref 0 in
    {
      Explore.name;
      build =
        (fun m ->
          before := Atomic.get t.Litmus.observed;
          let judge = t.Litmus.scenario.Explore.build m in
          fun outcome ->
            match judge outcome with
            | Explore.Pass when Atomic.get t.Litmus.observed > !before ->
                Explore.Violation "target behaviour observed"
            | v -> v);
    }
  in
  let targets =
    [
      ( "ms-weak",
        fun () -> Mp.make (queue_factory "ms-weak") (Mp.fresh_stats ()) );
      ("litmus-sb", hunt "sb-hunt" (fun () -> Litmus.sb ()));
      ( "litmus-mp-rlx",
        hunt "mp-rlx-hunt" (fun () -> Litmus.mp ~rmode:Mode.Rlx ()) );
      ("litmus-iriw", hunt "iriw-hunt" (fun () -> Litmus.iriw ()));
    ]
  in
  let modes = [ Fz.Fuzz.Uniform; Fz.Fuzz.Pct; Fz.Fuzz.Guided ] in
  let median xs =
    match List.sort compare xs with
    | [] -> 0.
    | s -> List.nth s (List.length s / 2)
  in
  let medians = Hashtbl.create 16 in
  let target_json (tname, mk) =
    let mode_json mode =
      let trials =
        List.map
          (fun seed ->
            let options =
              {
                Fz.Fuzz.default_options with
                Fz.Fuzz.mode;
                execs = budget;
                seed;
                shrink = false;
              }
            in
            let o = Fz.Fuzz.run ~options mk in
            (* censored at the budget when no violation was found *)
            let first =
              match o.Fz.Fuzz.first_violation_exec with
              | Some i -> i + 1
              | None -> budget
            in
            ( seed,
              first,
              o.Fz.Fuzz.first_violation_exec <> None,
              o.Fz.Fuzz.seconds ))
          seeds
      in
      let found = List.filter (fun (_, _, f, _) -> f) trials in
      let med_execs =
        median (List.map (fun (_, n, _, _) -> float_of_int n) trials)
      in
      let med_seconds = median (List.map (fun (_, _, _, s) -> s) trials) in
      Hashtbl.replace medians (tname, mode) med_execs;
      Jsonout.Obj
        [
          ("mode", Jsonout.Str (Fz.Fuzz.mode_name mode));
          ("trials", Jsonout.Int (List.length trials));
          ("found", Jsonout.Int (List.length found));
          ("median_execs_to_violation", Jsonout.Float med_execs);
          ("median_seconds", Jsonout.Float med_seconds);
          ( "per_seed",
            Jsonout.List
              (List.map
                 (fun (seed, n, f, s) ->
                   Jsonout.Obj
                     [
                       ("seed", Jsonout.Int seed);
                       ("execs_to_violation", Jsonout.Int n);
                       ("found", Jsonout.Bool f);
                       ("seconds", Jsonout.Float s);
                     ])
                 trials) );
        ]
    in
    Jsonout.Obj
      [
        ("target", Jsonout.Str tname);
        ("modes", Jsonout.List (List.map mode_json modes));
      ]
  in
  let json =
    Jsonout.Obj
      [
        ("budget", Jsonout.Int budget);
        ("seeds", Jsonout.Int (List.length seeds));
        ("quick", Jsonout.Bool quick);
        ("pct_depth", Jsonout.Int Fz.Fuzz.default_options.Fz.Fuzz.pct_depth);
        ("targets", Jsonout.List (List.map target_json targets));
      ]
  in
  write_json_file "BENCH_fuzz.json" json;
  if check then begin
    let m mode = Hashtbl.find medians ("ms-weak", mode) in
    let u = m Fz.Fuzz.Uniform
    and p = m Fz.Fuzz.Pct
    and g = m Fz.Fuzz.Guided in
    if Float.min p g <= u then
      Format.printf
        "fuzz-smoke: directed search beats-or-ties uniform on ms-weak \
         (uniform %.0f, pct %.0f, guided %.0f median execs)@."
        u p g
    else begin
      Format.printf
        "fuzz-smoke FAILED: uniform %.0f beats pct %.0f and guided %.0f on \
         ms-weak@."
        u p g;
      exit 1
    end
  end

(* -- audit-prioritization mode (--static [--check]) ----------------------------

   Machine-readable cost-to-first-verdict comparison, written to
   BENCH_static.json: for each probe, the mode-necessity audit is run
   twice — in declaration (discovery) order and in the static linter's
   predicted order (predicted-necessary sites first, their weakest
   verdict mutant run before the intermediate ones) — and the report's
   [first_violation] counter says how many mutants and executions each
   order spent before its first Necessary verdict.  The static analysis
   wall time is reported alongside: the prediction is only worth its
   cost if it is cheap next to the exploration it saves.  [--check]
   exits nonzero unless the prioritized order reaches the first verdict
   in strictly fewer executions (and no more mutants) on every probe:
   the CI static-smoke gate. *)

let bench_static ~check =
  let module Audit = Compass_analysis.Audit in
  let module Static = Compass_static.Static in
  let probes = [ "ms" ] in
  let options =
    { Audit.execs = 4000; jobs = 1; reduce = Machine.RDpor }
  in
  let failed = ref [] in
  let probe_json key =
    let e =
      match Specreg.find key with
      | Some e -> e
      | None -> failwith ("no registered structure: " ^ key)
    in
    let scenarios = e.Compass_spec.Libspec.scenarios in
    let t0 = Unix.gettimeofday () in
    let decl = Audit.run ~options ~probe:key scenarios in
    let t1 = Unix.gettimeofday () in
    let st = Static.analyze ~subject:key scenarios in
    let t2 = Unix.gettimeofday () in
    let predicted = st.Static.predicted_necessary in
    let prio =
      Audit.run ~options
        ~prioritize:(predicted @ st.Static.over_strong)
        ~verdict_first:(fun s -> List.mem s predicted)
        ~probe:key scenarios
    in
    let t3 = Unix.gettimeofday () in
    let order_json (m, x) =
      Jsonout.Obj [ ("mutants", Jsonout.Int m); ("executions", Jsonout.Int x) ]
    in
    (match (decl.Audit.first_violation, prio.Audit.first_violation) with
    | Some (dm, dx), Some (pm, px) ->
        Format.printf
          "%-10s declaration order: %d mutants, %4d execs; prioritized: %d \
           mutants, %4d execs (static analysis %.1fs)@."
          key dm dx pm px (t2 -. t1);
        if not (px < dx && pm <= dm) then failed := key :: !failed
    | _ ->
        Format.printf "%-10s no first violation in one of the orders@." key;
        failed := key :: !failed);
    Jsonout.Obj
      [
        ("probe", Jsonout.Str key);
        ("predicted_necessary", Jsonout.str_list predicted);
        ("over_strong_candidates", Jsonout.str_list st.Static.over_strong);
        ( "declaration_order",
          Jsonout.Obj
            [
              ( "first_violation",
                Jsonout.opt order_json decl.Audit.first_violation );
              ("seconds", Jsonout.Float (t1 -. t0));
            ] );
        ( "static_prioritized",
          Jsonout.Obj
            [
              ( "first_violation",
                Jsonout.opt order_json prio.Audit.first_violation );
              ("analysis_seconds", Jsonout.Float (t2 -. t1));
              ("audit_seconds", Jsonout.Float (t3 -. t2));
            ] );
      ]
  in
  let json =
    Jsonout.Obj
      [
        ("execs_per_mutant", Jsonout.Int options.Audit.execs);
        ("probes", Jsonout.List (List.map probe_json probes));
      ]
  in
  write_json_file "BENCH_static.json" json;
  if check then
    match List.rev !failed with
    | [] ->
        Format.printf
          "static-smoke: prioritized order reaches the first verdict cheaper \
           everywhere@."
    | l ->
        Format.printf "static-smoke FAILED on: %s@." (String.concat ", " l);
        exit 1

(* -- simulation-refinement ledger (BENCH_sim.json) ---------------------------- *)

(* The cost profile of [compass sim]: per structure, how many executions
   the most-general-client family needs and how much the commit-point
   assignment search adds on top ([sim_states] per execution ~ the
   search's branching), plus time-to-witness on the checked-in broken
   fixture (ms-weak, [--until-violation] + shrink).  [--check] gates the
   verdicts: every correct structure must simulate, ms-weak must break
   with a localised witness. *)
let bench_sim ~quick ~check =
  let depth = if quick then 1 else 2 in
  let max_execs = if quick then 20_000 else 100_000 in
  (* Each structure is gated at the deepest MGC depth it simulates at.  The
     weak Herlihy-Wing variant is gated at depth 1: at depth 2 the client
     [ir|ir] exposes its weak empty dequeue (a fruitless scan bounded by a
     stale relaxed read of [back]) as a genuine LAThist-level break — the
     registry ladder's Hist:sat only covers the registered workloads, none
     of which run an enqueue and a dequeue on the same thread.  The break
     is pinned as an expected finding below rather than averaged away. *)
  let sim_structs =
    [ ("ms", depth); ("treiber", depth); ("hw", 1); ("lock-queue", depth) ]
  in
  let entry key =
    match Specreg.find key with
    | Some e -> e
    | None -> failwith ("no registered structure: " ^ key)
  in
  let wrong = ref [] in
  let rows =
    List.map
      (fun (key, depth) ->
        let e = entry key in
        let options =
          { Compass_sim.Sim.default_options with mgc_depth = depth; max_execs }
        in
        let r, t, _, _ =
          time_gc (fun () -> Compass_sim.Sim.run ~options e)
        in
        Format.printf
          "sim %-12s depth %d: %3d clients, %7d executions, %8d search \
           states, %6.2fs  %s@."
          key depth r.Compass_sim.Sim.clients_run r.Compass_sim.Sim.executions
          r.Compass_sim.Sim.sim_states t
          (if r.Compass_sim.Sim.ok then "SIMULATES" else "BREAKS");
        if not r.Compass_sim.Sim.ok then wrong := key :: !wrong;
        ( key,
          Jsonout.Obj
            [
              ("struct", Jsonout.Str key);
              ("mgc_depth", Jsonout.Int depth);
              ("clients", Jsonout.Int r.Compass_sim.Sim.clients_run);
              ("executions", Jsonout.Int r.Compass_sim.Sim.executions);
              ("sim_states", Jsonout.Int r.Compass_sim.Sim.sim_states);
              ("seconds", Jsonout.Float t);
              ("ok", Jsonout.Bool r.Compass_sim.Sim.ok);
              ("complete", Jsonout.Bool r.Compass_sim.Sim.complete);
            ] ))
      sim_structs
  in
  (* Pinned finding (full mode): hw at depth 2 must BREAK on the weak empty
     dequeue.  Run with the breaking client only so the row measures
     time-to-witness, not the whole 136-client family. *)
  let hw_depth2 =
    if quick then None
    else begin
      let options =
        {
          Compass_sim.Sim.default_options with
          mgc_depth = 2;
          max_execs;
          until_violation = true;
          only_client = Some "ir|ir";
        }
      in
      let r, t, _, _ =
        time_gc (fun () -> Compass_sim.Sim.run ~options (entry "hw"))
      in
      Format.printf
        "sim %-12s depth 2: client ir|ir — %s in %.2fs (weak empty dequeue, \
         expected)@."
        "hw"
        (if r.Compass_sim.Sim.ok then "SIMULATES" else "BREAKS")
        t;
      Some (r, t)
    end
  in
  (* Time-to-witness on the broken fixture: stop at the first breaking
     client, shrink, localise. *)
  let weak = entry "ms-weak" in
  let options =
    {
      Compass_sim.Sim.default_options with
      mgc_depth = depth;
      max_execs;
      until_violation = true;
    }
  in
  let wr, wt, _, _ =
    time_gc (fun () -> Compass_sim.Sim.run ~options weak)
  in
  let witness_ok =
    match wr.Compass_sim.Sim.witness with
    | Some w -> w.Compass_sim.Sim.w_detail <> None
    | None -> false
  in
  Format.printf
    "sim %-12s depth %d: time-to-witness %.2fs over %d executions — %s@."
    "ms-weak" depth wt wr.Compass_sim.Sim.executions
    (match wr.Compass_sim.Sim.witness with
    | Some w ->
        Printf.sprintf "witness on client %s (%d shrink replays%s)"
          w.Compass_sim.Sim.w_client w.Compass_sim.Sim.w_replays
          (if witness_ok then ", localised" else ", NO break detail")
    | None -> "NO WITNESS");
  let json =
    Jsonout.Obj
      [
        ("mgc_depth", Jsonout.Int depth);
        ("structures", Jsonout.List (List.map snd rows));
        ( "hw_depth2",
          match hw_depth2 with
          | None -> Jsonout.Null
          | Some (r, t) ->
              Jsonout.Obj
                [
                  ("client", Jsonout.Str "ir|ir");
                  ("breaks", Jsonout.Bool (not r.Compass_sim.Sim.ok));
                  ("executions", Jsonout.Int r.Compass_sim.Sim.executions);
                  ("time_to_witness_s", Jsonout.Float t);
                  ( "note",
                    Jsonout.Str
                      "weak empty dequeue: fruitless scan bounded by a stale \
                       relaxed back read; genuine LAThist-level break, see \
                       DESIGN.md" );
                ] );
        ( "ms_weak",
          Jsonout.Obj
            [
              ("executions", Jsonout.Int wr.Compass_sim.Sim.executions);
              ("time_to_witness_s", Jsonout.Float wt);
              ("ok", Jsonout.Bool wr.Compass_sim.Sim.ok);
              ( "witness",
                match wr.Compass_sim.Sim.witness with
                | None -> Jsonout.Null
                | Some w ->
                    Jsonout.Obj
                      [
                        ("client", Jsonout.Str w.Compass_sim.Sim.w_client);
                        ("message", Jsonout.Str w.Compass_sim.Sim.w_message);
                        ( "shrink_replays",
                          Jsonout.Int w.Compass_sim.Sim.w_replays );
                        ("localised", Jsonout.Bool witness_ok);
                      ] );
            ] );
      ]
  in
  write_json_file "BENCH_sim.json" json;
  if check then begin
    if !wrong <> [] then begin
      Format.printf "sim-smoke FAILED: should simulate but break: %s@."
        (String.concat ", " (List.rev !wrong));
      exit 1
    end;
    if wr.Compass_sim.Sim.ok then begin
      Format.printf
        "sim-smoke FAILED: ms-weak simulates but the registry expects a \
         violation@.";
      exit 1
    end;
    if not witness_ok then begin
      Format.printf
        "sim-smoke FAILED: ms-weak witness is missing or not localised to \
         a break step@.";
      exit 1
    end;
    (match hw_depth2 with
    | Some (r, _) when r.Compass_sim.Sim.ok ->
        Format.printf
          "sim-smoke FAILED: hw simulates at depth 2 on ir|ir — the weak \
           empty dequeue finding disappeared@.";
        exit 1
    | _ -> ());
    Format.printf
      "sim-smoke: %d structures simulate, ms-weak breaks with a localised \
       witness in %.2fs@."
      (List.length sim_structs) wt
  end

(* -- driver ------------------------------------------------------------------- *)

(* Exactly one mode flag, plus only the switches that mode reads.
   Anything else, no arguments included, is a usage error. *)
let () =
  let modes =
    [
      ( "--explore",
        ( [ "--quick"; "--check"; "--force-jobs" ],
          fun has ->
            bench_explore ~quick:(has "--quick") ~check:(has "--check")
              ~force_jobs:(has "--force-jobs") ) );
      ( "--fuzz",
        ( [ "--quick"; "--check" ],
          fun has -> bench_fuzz ~quick:(has "--quick") ~check:(has "--check") ) );
      ("--static", ([ "--check" ], fun has -> bench_static ~check:(has "--check")));
      ( "--sim",
        ( [ "--quick"; "--check" ],
          fun has -> bench_sim ~quick:(has "--quick") ~check:(has "--check") ) );
    ]
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let usage () =
    prerr_endline
      "usage: main.exe (--explore [--quick] [--check] [--force-jobs] | --fuzz \
       [--quick] [--check] | --static [--check] | --sim [--quick] [--check])";
    exit 2
  in
  match List.filter (fun a -> List.mem_assoc a modes) args with
  | [ mode ] ->
      let switches, run = List.assoc mode modes in
      if List.for_all (fun a -> a = mode || List.mem a switches) args then
        run (fun s -> List.mem s args)
      else usage ()
  | _ -> usage ()
