open Compass_rmc
open Compass_machine
open Compass_dstruct
open Compass_clients
open Compass_analysis
open Compass_static

(* The static synchronization linter:

   - the planted bug is found: ms-weak's relaxed publication CAS is
     a publication defect, and weakening the correct queue's link_cas
     the same way flips its report from clean to flagged — matching the
     dynamic audit's Necessary verdict for that site;
   - no false positives: every correctly-synchronized registered
     structure lints clean at its declared modes;
   - soundness of the race candidate set (differential): every
     dynamically detected race site pair, across the litmus battery and
     the registered structures' workloads, appears among the static
     candidates. *)

let entry key =
  match Specreg.find key with
  | Some e -> e
  | None -> Alcotest.failf "no registered structure named %s" key

let analyze_entry ?overrides (e : Compass_spec.Libspec.entry) =
  Static.analyze ?overrides ~subject:e.Compass_spec.Libspec.key
    e.Compass_spec.Libspec.scenarios

let defect_sites r =
  List.map (fun (f : Lints.finding) -> f.Lints.site) (Static.defects r)
  |> List.sort_uniq compare

(* --- the planted bug ------------------------------------------------ *)

let test_ms_weak_flagged () =
  let r = analyze_entry (entry "ms-weak") in
  Alcotest.(check bool) "ms-weak is not clean" false (Static.clean r);
  let pubs =
    List.filter
      (fun (f : Lints.finding) ->
        f.Lints.severity = Lints.Defect && f.Lints.lint = "publication")
      r.Static.findings
  in
  Alcotest.(check bool)
    "publication defect lands on the relaxed link CAS" true
    (List.exists
       (fun (f : Lints.finding) ->
         f.Lints.site = "msqueue.enq.link_cas")
       pubs)

(* --- no false positives at declared modes --------------------------- *)

let test_declared_modes_sweep () =
  List.iter
    (fun (e : Compass_spec.Libspec.entry) ->
      let r = analyze_entry e in
      let msg =
        Printf.sprintf "%s defects: %s" e.Compass_spec.Libspec.key
          (String.concat ", " (defect_sites r))
      in
      Alcotest.(check bool)
        msg
        (not e.Compass_spec.Libspec.expect_violation)
        (Static.clean r))
    (Specreg.all ())

(* --- weakening flips the correct queue ------------------------------ *)

let test_weaken_flips_ms () =
  let e = entry "ms" in
  let base = analyze_entry e in
  Alcotest.(check bool) "ms clean at declared modes" true (Static.clean base);
  Alcotest.(check bool)
    "link_cas predicted necessary" true
    (List.mem "msqueue.enq.link_cas" base.Static.predicted_necessary);
  let overrides =
    Override.weaken_access "msqueue.enq.link_cas" Mode.Rlx Override.empty
  in
  let weak = analyze_entry ~overrides e in
  Alcotest.(check bool) "weakened ms flagged" false (Static.clean weak);
  Alcotest.(check bool)
    "defect lands on the weakened site" true
    (List.mem "msqueue.enq.link_cas" (defect_sites weak))

(* --- the fixture lints as the weakened queue ------------------------ *)

(* ms-weak is ms's code with the enqueue's three CASes relaxed: on MP,
   its findings, race candidates and predictions (scenario-blind) are
   those of ms under the three overrides.  Unlike exploration, the lints
   see the tail-helping CAS, which MP never runs. *)
let test_ms_weak_lints_as_override () =
  let lint ?overrides f =
    let r =
      Static.analyze ?overrides ~subject:"ms"
        [ (fun () -> Mp.make f (Mp.fresh_stats ())) ]
    in
    ( List.sort_uniq compare (List.map Lints.fkey r.Static.findings),
      (r.Static.race_candidates, r.Static.predicted_necessary,
       r.Static.over_strong) )
  in
  let weak_f, weak_p = lint Msqueue.relaxed_publication in
  let ms_f, ms_p =
    lint ~overrides:Test_analysis.relaxed_publication Msqueue.instantiate
  in
  Alcotest.(check (list (triple string string (option string))))
    "findings" ms_f weak_f;
  Alcotest.(check
              (triple (list (pair string string)) (list string) (list string)))
    "race candidates, predicted necessary, over-strong" ms_p weak_p;
  Alcotest.(check bool) "tail_help flagged" true
    (List.exists (fun (_, site, _) -> site = "msqueue.enq.tail_help") weak_f)

(* --- differential soundness: dynamic races \subseteq static --------- *)

let config = { Machine.default_config with record_accesses = true }

let norm a b = if a <= b then (a, b) else (b, a)

let dynamic_pairs ?(max_execs = 4_000) scenarios =
  let agg = Races.agg_create () in
  List.iter
    (fun mk ->
      let sc =
        Instrument.with_accesses (mk ()) (fun log ->
            Races.agg_add ~oracle:false agg log)
      in
      ignore (Explore.dfs ~max_execs ~incremental:true ~config sc))
    scenarios;
  let s = Races.summary agg in
  List.map
    (fun (p : Races.site_pair) -> norm p.Races.site_a p.Races.site_b)
    s.Races.by_site
  |> List.sort_uniq compare

let check_differential name scenarios =
  let dyn = dynamic_pairs scenarios in
  let st = Static.analyze ~subject:name scenarios in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: dynamic race (%s, %s) statically predicted" name a
           b)
        true
        (List.mem (a, b) st.Static.race_candidates))
    dyn

let test_differential_litmus () =
  List.iter
    (fun (t : Litmus.t) ->
      check_differential t.Litmus.scenario.Explore.name
        [ (fun () -> t.Litmus.scenario) ])
    (Litmus.racy_na () :: Litmus.all ())

let test_differential_structures () =
  List.iter
    (fun (e : Compass_spec.Libspec.entry) ->
      check_differential e.Compass_spec.Libspec.key
        e.Compass_spec.Libspec.scenarios)
    (Specreg.all ())

(* --- audit prioritization ------------------------------------------- *)

(* Feeding the static prediction to the audit must pay off on the
   cost-to-first-verdict metric: on ms, declaration order discovers
   tail_load first and spends a full acq->rlx exploration before its
   violation, while the prioritized order runs link_cas's weakest
   (verdict) mutant immediately — strictly fewer executions, no more
   mutants. *)
let test_prioritize_static () =
  let e = entry "ms" in
  let options =
    { Audit.execs = 4000; jobs = 1; reduce = Machine.RDpor }
  in
  let scenarios = e.Compass_spec.Libspec.scenarios in
  let decl = Audit.run ~options ~probe:"ms" scenarios in
  let st = analyze_entry e in
  let predicted = st.Static.predicted_necessary in
  Alcotest.(check bool)
    "static predicts necessary sites on ms" true (predicted <> []);
  let prio =
    Audit.run ~options
      ~prioritize:(predicted @ st.Static.over_strong)
      ~verdict_first:(fun s -> List.mem s predicted)
      ~probe:"ms" scenarios
  in
  match (decl.Audit.first_violation, prio.Audit.first_violation) with
  | None, _ -> Alcotest.fail "declaration-order audit found no violation"
  | _, None -> Alcotest.fail "prioritized audit found no violation"
  | Some (dm, dx), Some (pm, px) ->
      Alcotest.(check bool)
        (Printf.sprintf "prioritized executions %d < declaration order %d" px
           dx)
        true (px < dx);
      Alcotest.(check bool)
        (Printf.sprintf "prioritized mutants %d <= declaration order %d" pm dm)
        true (pm <= dm)

let suite =
  [
    Alcotest.test_case "ms-weak publication flagged" `Quick test_ms_weak_flagged;
    Alcotest.test_case "declared modes lint clean" `Quick
      test_declared_modes_sweep;
    Alcotest.test_case "weakening link_cas flips ms" `Quick test_weaken_flips_ms;
    Alcotest.test_case "ms-weak lints as ms under relaxed publication" `Quick
      test_ms_weak_lints_as_override;
    Alcotest.test_case "static prioritization reaches the verdict cheaper"
      `Quick test_prioritize_static;
    Alcotest.test_case "differential: litmus races covered" `Slow
      test_differential_litmus;
    Alcotest.test_case "differential: structure races covered" `Slow
      test_differential_structures;
  ]
