open Compass_rmc
open Compass_machine
open Compass_dstruct
open Compass_clients
open Prog.Syntax
module Fz = Compass_fuzz

(* The schedule-fuzzing subsystem: the shrinker must preserve the exact
   violation and emit a 1-minimal script; fuzz runs must be byte-identical
   across repeated runs for a fixed seed (including parallel workers); a
   small PCT budget must find the deliberately broken MS queue; corpus
   mutants must never raise on replay; and the random explorer's distinct
   statistic must behave. *)

let vi n = Value.Int n

(* Same shape as test_explore's seeded violation: MP over raw cells with
   a relaxed flag (stale read = violation), plus a third thread hammering
   an unrelated location so scripts have slack for the shrinker to
   remove. *)
let mp_rlx_scenario () =
  {
    Explore.name = "fuzz-mp-rlx";
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

let ms_weak () = Mp.make Msqueue.relaxed_publication (Mp.fresh_stats ())

let find_violation mk =
  let r = Explore.dfs ~until_violation:true ~max_execs:200_000 (mk ()) in
  match r.Explore.violations with
  | f :: _ -> f
  | [] -> Alcotest.fail "expected the scenario to violate under DFS"

(* -- shrinker ----------------------------------------------------------------- *)

let test_shrink_preserves_violation () =
  let f = find_violation mp_rlx_scenario in
  let stats, small =
    Fz.Shrink.minimize ~scenario:(mp_rlx_scenario ()) ~message:f.Explore.message
      f.Explore.trace
  in
  Alcotest.(check bool)
    "shrunk script reproduces the same violation" true
    (Fz.Shrink.reproduces ~scenario:(mp_rlx_scenario ())
       ~message:f.Explore.message small);
  Alcotest.(check bool)
    "shrunk no longer than the original" true
    (Array.length small <= Array.length f.Explore.trace);
  Alcotest.(check int) "stats record the final length" (Array.length small)
    stats.Fz.Shrink.final_len;
  (* the shrunk script must also be a *valid strict* script: the strict
     replay path is what [compass replay] uses *)
  let r = Explore.replay ~config:Machine.default_config
      (mp_rlx_scenario ()) small
  in
  (match r.Explore.r_verdict with
  | Explore.Violation m ->
      Alcotest.(check string) "strict replay message" f.Explore.message m
  | _ -> Alcotest.fail "strict replay of the shrunk script must violate")

let test_shrink_one_minimal () =
  let f = find_violation mp_rlx_scenario in
  let _, small =
    Fz.Shrink.minimize ~scenario:(mp_rlx_scenario ()) ~message:f.Explore.message
      f.Explore.trace
  in
  let reproduces s =
    Fz.Shrink.reproduces ~scenario:(mp_rlx_scenario ())
      ~message:f.Explore.message s
  in
  (* removing any single element must lose the violation *)
  Array.iteri
    (fun i _ ->
      let cand =
        Array.append (Array.sub small 0 i)
          (Array.sub small (i + 1) (Array.length small - i - 1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "removing position %d breaks reproduction" i)
        false (reproduces cand))
    small;
  (* lowering any single choice must lose the violation too *)
  Array.iteri
    (fun i (c : Decision.t) ->
      if c.Decision.choice > 0 then begin
        let cand = Array.copy small in
        cand.(i) <- Decision.resolve c (c.Decision.choice - 1);
        Alcotest.(check bool)
          (Printf.sprintf "decrementing position %d breaks reproduction" i)
          false (reproduces cand)
      end)
    small

(* -- determinism -------------------------------------------------------------- *)

let fuzz_opts ?(mode = Fz.Fuzz.Pct) ?(jobs = 1) ?(execs = 400) ~seed () =
  { Fz.Fuzz.default_options with Fz.Fuzz.mode; jobs; execs; seed }

let test_pct_deterministic () =
  List.iter
    (fun jobs ->
      let opts = fuzz_opts ~jobs ~seed:11 () in
      let a = Fz.Fuzz.run ~options:opts ms_weak in
      let b = Fz.Fuzz.run ~options:opts ms_weak in
      Alcotest.(check string)
        (Printf.sprintf "pct fingerprint stable across runs (jobs %d)" jobs)
        (Fz.Fuzz.fingerprint a) (Fz.Fuzz.fingerprint b))
    [ 1; 2 ]

let test_modes_deterministic () =
  List.iter
    (fun mode ->
      let opts = fuzz_opts ~mode ~seed:5 () in
      let a = Fz.Fuzz.run ~options:opts mp_rlx_scenario in
      let b = Fz.Fuzz.run ~options:opts mp_rlx_scenario in
      Alcotest.(check string)
        (Fz.Fuzz.mode_name mode ^ " fingerprint stable across runs")
        (Fz.Fuzz.fingerprint a) (Fz.Fuzz.fingerprint b))
    [ Fz.Fuzz.Uniform; Fz.Fuzz.Pct; Fz.Fuzz.Guided ]

(* -- finding the broken queue -------------------------------------------------- *)

(* The seed the CI fuzz-smoke job documents: PCT at depth 3 finds the
   ms-weak violation well within 500 executions. *)
let ci_seed = 1

let test_pct_finds_ms_weak () =
  let opts = fuzz_opts ~seed:ci_seed ~execs:500 () in
  let o = Fz.Fuzz.run ~options:opts ms_weak in
  (match o.Fz.Fuzz.first_violation_exec with
  | Some _ -> ()
  | None -> Alcotest.fail "PCT must find the ms-weak violation in 500 execs");
  match o.Fz.Fuzz.violations with
  | [] -> Alcotest.fail "a first violation implies a kept failure"
  | f :: _ ->
      (* the (shrunk) reported script replays to the same violation *)
      let r =
        Explore.replay ~config:opts.Fz.Fuzz.config (ms_weak ())
          f.Explore.trace
      in
      (match r.Explore.r_verdict with
      | Explore.Violation m ->
          Alcotest.(check string) "replayed message" f.Explore.message m
      | _ -> Alcotest.fail "reported script must replay to a violation");
      Alcotest.(check bool) "coverage counted distinct executions" true
        (o.Fz.Fuzz.distinct > 0 && o.Fz.Fuzz.distinct <= o.Fz.Fuzz.execs);
      Alcotest.(check bool) "site pairs covered" true (o.Fz.Fuzz.pairs > 0)

(* -- corpus mutants ------------------------------------------------------------ *)

let test_corpus_mutants_never_raise () =
  (* collect some genuine decision vectors *)
  let corpus = Fz.Corpus.create () in
  let sc = mp_rlx_scenario () in
  for seed = 0 to 9 do
    let m = Machine.create () in
    let judge = sc.Explore.build m in
    let oracle = Oracle.random ~seed in
    ignore (judge (Machine.run m oracle));
    Fz.Corpus.add corpus
      (Decision.strip_trailing_zeros (Oracle.trace oracle))
  done;
  Alcotest.(check bool) "corpus non-empty" true (Fz.Corpus.size corpus > 0);
  let st = Random.State.make [| 0xfeed |] in
  for _ = 1 to 200 do
    match Fz.Corpus.pick corpus st with
    | None -> Alcotest.fail "pick on a non-empty corpus"
    | Some base ->
        let other = Fz.Corpus.pick corpus st in
        let mutant = Fz.Corpus.mutate ?other st base in
        (* clamped prefix replay must never raise, whatever the mutant *)
        let m = Machine.create () in
        let judge = (mp_rlx_scenario ()).Explore.build m in
        let oracle = Fz.Fuzz.prefix_oracle st mutant in
        ignore (judge (Machine.run m oracle))
  done

let test_corpus_roundtrip () =
  let corpus = Fz.Corpus.create () in
  Fz.Corpus.add corpus (Decision.of_ints [| 1; 0; 2 |]);
  Fz.Corpus.add corpus (Decision.of_ints [| 3 |]);
  let file = Filename.temp_file "compass" ".corpus" in
  Fz.Corpus.save corpus file;
  let back = Fz.Corpus.load file in
  Sys.remove file;
  Alcotest.(check (list (list int)))
    "corpus survives save/load"
    (List.map
       (fun t -> Array.to_list (Decision.choices t))
       (Fz.Corpus.to_list corpus))
    (List.map
       (fun t -> Array.to_list (Decision.choices t))
       (Fz.Corpus.to_list back))

(* -- Explore.random distinct statistics ---------------------------------------- *)

let test_random_distinct () =
  let r = Explore.random ~execs:500 ~seed:3 (mp_rlx_scenario ()) in
  Alcotest.(check bool) "distinct positive" true (r.Explore.distinct > 0);
  Alcotest.(check bool) "distinct <= executions" true
    (r.Explore.distinct <= r.Explore.executions);
  (* DFS enumerates: every execution is a distinct decision vector *)
  let d = Explore.dfs ~max_execs:5_000 (mp_rlx_scenario ()) in
  Alcotest.(check int) "DFS distinct = executions" d.Explore.executions
    d.Explore.distinct

(* -- the seeded sampler ---------------------------------------------------------

   Execution logs stand in for decision vectors: equal vectors run equal
   access logs, so different logs mean different vectors.  [recording]
   wraps a scenario so that its judge appends each execution's access
   log (needs [record_accesses]; at one job, in index order). *)

let accesses_config = { Machine.default_config with record_accesses = true }

let recording () =
  let logs = ref [] in
  let wrap (sc : Explore.scenario) =
    {
      sc with
      Explore.build =
        (fun m ->
          let judge = sc.Explore.build m in
          fun o ->
            logs := Machine.accesses m :: !logs;
            judge o);
    }
  in
  (wrap, fun () -> Array.of_list (List.rev !logs))

let ms_mp () = Mp.make Msqueue.instantiate (Mp.fresh_stats ())

let sampled_logs ~seed ~execs mk =
  let wrap, logs = recording () in
  ignore (Explore.random ~execs ~seed ~config:accesses_config (wrap (mk ())));
  logs ()

(* A wide tree: two writers and two readers of one location, four
   accesses each, so a random walk almost never revisits a leaf. *)
let wide_scenario () =
  {
    Explore.name = "wide";
    build =
      (fun m ->
        let x = Machine.alloc m ~name:"x" ~init:(vi 0) 1 in
        let writer base =
          Prog.returning_unit
            (Prog.seq
               (List.init 4 (fun k -> Prog.store x (vi (base + k)) Mode.Rlx)))
        in
        let reader =
          Prog.returning_unit
            (Prog.seq
               (List.init 4 (fun _ ->
                    let* _ = Prog.load x Mode.Rlx in
                    Prog.return ())))
        in
        Machine.spawn m [ writer 10; writer 20; reader; reader ];
        fun _ -> Explore.Pass);
  }

(* Neighbouring seeds draw unrelated streams, not shifted copies:
   under a [seed + i] derivation execution [i] of seed [s] is execution
   [i - 1] of seed [s + 1], for every [i].  On the wide tree no shifted
   pair agrees.  On the MS-queue MP client random walks concentrate on a
   few dozen leaves, so about one pair in ten agrees by chance (as
   unshifted pairs do); fewer than a quarter may. *)
let test_adjacent_seeds_unrelated () =
  let shifted mk s =
    let a = sampled_logs ~seed:s ~execs:100 mk
    and b = sampled_logs ~seed:(s + 1) ~execs:100 mk in
    let n = ref 0 in
    for i = 1 to 99 do
      if a.(i) = b.(i - 1) then incr n
    done;
    !n
  in
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "wide tree, seed %d vs %d: shifted pairs agreeing" s
           (s + 1))
        0 (shifted wide_scenario s);
      let n = shifted ms_mp s in
      if n >= 25 then
        Alcotest.failf "ms-queue MP, seed %d vs %d: %d of 99 shifted pairs agree"
          s (s + 1) n)
    [ 1; 7; 42 ]

(* The report does not depend on the job count, and the kept
   violations are the lowest-indexed ones: a shorter run's violations
   are a prefix of a longer run's. *)
let test_random_jobs_invariant () =
  let json r = Compass_util.Jsonout.to_string (Explore.report_to_json r) in
  let run ~jobs ~execs =
    Explore.random ~jobs ~execs ~seed:3 (mp_rlx_scenario ())
  in
  let r1 = run ~jobs:1 ~execs:2_000 in
  Alcotest.(check bool) "the scenario violates" true
    (List.length r1.Explore.violations >= 2);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs %d report = jobs 1 report" jobs)
        (json r1)
        (json (run ~jobs ~execs:2_000)))
    [ 2; 4 ];
  let scripts (r : Explore.report) =
    List.map (fun f -> Array.to_list (Explore.failure_script f)) r.violations
  in
  List.iter
    (fun jobs ->
      let short = scripts (run ~jobs ~execs:60) in
      Alcotest.(check bool) "a short run keeps some violations" true
        (short <> []);
      Alcotest.(check (list (list int)))
        (Printf.sprintf "jobs %d: a short run's violations lead the long run's"
           jobs)
        short
        (List.filteri (fun i _ -> i < List.length short) (scripts r1)))
    [ 1; 4 ]

(* Fuzz outcomes pinned byte for byte, so that a change to the sampling
   loop underneath cannot move them: fingerprints of ms-weak at seed 1,
   500 executions, in every mode at jobs 1 and 2. *)
let golden_fingerprints =
  let v scripts =
    String.concat ";"
      (List.map
         (fun s -> "fault: data race on node by thread 1 (na-read):[" ^ s ^ "]")
         scripts)
  in
  let line mode jobs counts first scripts =
    ( mode,
      jobs,
      Printf.sprintf
        "mp[ms-queue-weak, flag rel/acq]|mode=%s|seed=1|jobs=%d|depth=3|%s|first=%d|%s"
        (Fz.Fuzz.mode_name mode) jobs counts first (v scripts) )
  in
  [
    line Fz.Fuzz.Uniform 1
      "execs=54|distinct=13|pairs=13|npe=2|corpus=13|clamped=0" 53
      [ "0,0,0,0,0,0,0,1,1,1" ];
    line Fz.Fuzz.Uniform 2
      "execs=135|distinct=21|pairs=13|npe=4|corpus=29|clamped=0" 53
      [ "0,0,0,0,0,0,0,1,1,1"; "0,0,0,1,0,0,0,0,0,0,1,1,0,0,1" ];
    line Fz.Fuzz.Pct 1 "execs=6|distinct=4|pairs=13|npe=2|corpus=4|clamped=0"
      5 [ "0,0,0,0,1,0,0,0,1,1" ];
    line Fz.Fuzz.Pct 2 "execs=7|distinct=5|pairs=13|npe=4|corpus=6|clamped=0"
      5
      [ "0,0,0,0,1,0,0,0,1,1"; "0,0,0,0,0,1,0,0,1,1,1" ];
    line Fz.Fuzz.Guided 1
      "execs=67|distinct=14|pairs=13|npe=2|corpus=14|clamped=20" 66
      [ "0,0,1,0,0,0,0,0,1,1" ];
    line Fz.Fuzz.Guided 2
      "execs=199|distinct=30|pairs=13|npe=4|corpus=43|clamped=37" 104
      [ "0,0,0,0,0,1,0,0,1,1"; "0,0,1,0,0,0,0,0,0,0,0,0,0,1,1,0,1" ];
  ]

let test_golden_fingerprints () =
  List.iter
    (fun (mode, jobs, expected) ->
      let o =
        Fz.Fuzz.run ~options:(fuzz_opts ~mode ~jobs ~execs:500 ~seed:1 ()) ms_weak
      in
      Alcotest.(check string)
        (Printf.sprintf "%s, jobs %d" (Fz.Fuzz.mode_name mode) jobs)
        expected (Fz.Fuzz.fingerprint o))
    golden_fingerprints

(* Uniform fuzzing and [Explore.random] run the same executions from
   the same seed. *)
let test_uniform_fuzz_is_random () =
  let execs = 300 and seed = 5 in
  let wrap, fuzzed = recording () in
  let o =
    Fz.Fuzz.run
      ~options:(fuzz_opts ~mode:Fz.Fuzz.Uniform ~execs ~seed ())
      (fun () -> wrap (ms_mp ()))
  in
  Alcotest.(check int) "no violation cut the run short" execs o.Fz.Fuzz.execs;
  let sampled = sampled_logs ~seed ~execs ms_mp in
  let fuzzed = fuzzed () in
  Alcotest.(check int) "same number of executions" (Array.length sampled)
    (Array.length fuzzed);
  Array.iteri
    (fun i log ->
      if log <> fuzzed.(i) then
        Alcotest.failf "execution %d differs between random and fuzz" i)
    sampled;
  Alcotest.(check bool) "the sample is not one execution repeated" true
    (Array.exists (fun l -> l <> sampled.(0)) sampled)

let suite =
  [
    Alcotest.test_case "shrink preserves violation" `Slow
      test_shrink_preserves_violation;
    Alcotest.test_case "shrink is 1-minimal" `Slow test_shrink_one_minimal;
    Alcotest.test_case "pct deterministic (jobs 1 and 2)" `Slow
      test_pct_deterministic;
    Alcotest.test_case "all modes deterministic" `Slow
      test_modes_deterministic;
    Alcotest.test_case "pct finds ms-weak violation (seed 1)" `Slow
      test_pct_finds_ms_weak;
    Alcotest.test_case "corpus mutants never raise" `Slow
      test_corpus_mutants_never_raise;
    Alcotest.test_case "corpus save/load roundtrip" `Quick
      test_corpus_roundtrip;
    Alcotest.test_case "random explorer distinct stats" `Slow
      test_random_distinct;
    Alcotest.test_case "sampler: adjacent seeds share no shifted execution"
      `Slow test_adjacent_seeds_unrelated;
    Alcotest.test_case "sampler: random report equal at jobs 1, 2, 4" `Slow
      test_random_jobs_invariant;
    Alcotest.test_case "sampler: golden fuzz fingerprints (ms-weak)" `Slow
      test_golden_fingerprints;
    Alcotest.test_case "sampler: uniform fuzz runs Explore.random's executions"
      `Slow test_uniform_fuzz_is_random;
  ]
