open Compass_rmc
open Compass_machine
open Compass_util

(* Orchestration: build each scenario's machine (setup only — never
   run), evaluate its threads symbolically, merge the per-scenario
   paths into one site graph, lint at declared modes, then re-lint each
   weakenable site under its weakest hypothetical override to split the
   sites into predicted-necessary (the weakening introduces a new
   defect) and over-strong candidates (it does not).  The prediction is
   what [analyze modes --prioritize=static] feeds the dynamic audit. *)

type stats = {
  scenarios : int;
  threads : int;
  paths : int;
  dropped : int;
}

type report = {
  subject : string;
  scenario_names : string list;
  override_specs : string list;  (** base [--weaken] specs in effect *)
  graph : Sitegraph.t;
  findings : Lints.finding list;  (** at the base modes *)
  race_candidates : (string * string) list;
      (** sorted site pairs: na-race candidates plus defect pairs — the
          superset the dynamic differential checks against *)
  predicted_necessary : string list;
      (** weakenable sites whose weakest hypothetical weakening
          introduces a new defect, strongest-signal lints first *)
  over_strong : string list;
      (** weakenable sites whose weakest weakening stays defect-free *)
  stats : stats;
}

let defects r =
  List.filter (fun (f : Lints.finding) -> f.Lints.severity = Lints.Defect)
    r.findings

let clean r = defects r = []

(* The weakest strict weakening of a site, mirroring the audit's mutant
   ladder ({!Compass_analysis.Audit.weakenings}): the verdict mutant is
   the weakest one, so that is the hypothesis worth linting. *)
let weakest_hyp site = function
  | Sitegraph.KAccess (Mode.AcqRel | Mode.Acq | Mode.Rel) ->
      Some (Override.weaken_access site Mode.Rlx Override.empty)
  | Sitegraph.KAccess (Mode.Rlx | Mode.Na) -> None
  | Sitegraph.KFence _ -> Some (Override.drop_fence site Override.empty)

let lint_rank (f : Lints.finding) =
  match f.Lints.lint with
  | "publication" -> 0
  | "relaxed-cas-success" -> 1
  | _ -> 2

let analyze ?(overrides = Override.empty) ~subject
    scenarios =
  let runs =
    List.map
      (fun mk ->
        let sc = mk () in
        let m = Machine.create () in
        let (_ : Machine.outcome -> Explore.verdict) = sc.Explore.build m in
        ( sc.Explore.name,
          Sym.run ~overrides m ))
      scenarios
  in
  let all_paths = List.concat_map (fun (_, r) -> r.Sym.paths) runs in
  let graph = Sitegraph.build all_paths in
  let findings =
    List.concat_map
      (fun (name, r) -> Lints.run ~scenario:name r.Sym.paths)
      runs
  in
  let seen = Hashtbl.create 32 in
  let findings =
    List.filter
      (fun f ->
        let k = Lints.fkey f in
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.replace seen k ();
          true))
      findings
  in
  let base_defect_keys =
    List.filter_map
      (fun (f : Lints.finding) ->
        if f.Lints.severity = Lints.Defect then Some (Lints.fkey f) else None)
      findings
  in
  (* Classify each weakenable site by re-linting under its weakest
     hypothetical weakening — evaluation is shared, only the scans
     re-run. *)
  let ranked_predicted = ref [] and over_strong = ref [] in
  List.iter
    (fun (s : Sitegraph.site) ->
      if s.Sitegraph.labeled then
        match weakest_hyp s.Sitegraph.key s.Sitegraph.kind with
        | None -> ()
        | Some hyp ->
            let fresh =
              List.concat_map
                (fun (name, r) ->
                  Lints.run ~hyp ~with_candidates:false ~scenario:name
                    r.Sym.paths)
                runs
              |> List.filter (fun f ->
                     not (List.mem (Lints.fkey f) base_defect_keys))
            in
            if fresh = [] then over_strong := s.Sitegraph.key :: !over_strong
            else
              let rank =
                List.fold_left (fun acc f -> min acc (lint_rank f)) 9 fresh
              in
              ranked_predicted :=
                (rank, List.length !ranked_predicted, s.Sitegraph.key)
                :: !ranked_predicted)
    graph.Sitegraph.sites;
  let predicted_necessary =
    List.sort compare !ranked_predicted |> List.map (fun (_, _, k) -> k)
  in
  let race_candidates =
    List.filter_map
      (fun (f : Lints.finding) ->
        match f.Lints.partner with
        | Some b ->
            let a = f.Lints.site in
            Some (if a <= b then (a, b) else (b, a))
        | None -> None)
      findings
    |> List.sort_uniq compare
  in
  let stats =
    {
      scenarios = List.length runs;
      threads = List.fold_left (fun n (_, r) -> n + r.Sym.threads) 0 runs;
      paths = List.fold_left (fun n (_, r) -> n + List.length r.Sym.paths) 0 runs;
      dropped = List.fold_left (fun n (_, r) -> n + r.Sym.dropped) 0 runs;
    }
  in
  {
    subject;
    scenario_names = List.map fst runs;
    override_specs = Override.spec_strings overrides;
    graph;
    findings;
    race_candidates;
    predicted_necessary;
    over_strong = List.rev !over_strong;
    stats;
  }

(* Site discovery only — no lint passes, no hypothesis classification. *)
let site_modes scenarios =
  let paths =
    List.concat_map
      (fun mk ->
        let sc = mk () in
        let m = Machine.create () in
        let (_ : Machine.outcome -> Explore.verdict) = sc.Explore.build m in
        (Sym.run m).Sym.paths)
      scenarios
  in
  Sitegraph.labeled_modes (Sitegraph.build paths)

(* -- rendering --------------------------------------------------------------- *)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>static synchronization lints: %s@ scenarios: %s%s@ sites: %d \
     (%d labeled), may-alias edges: %d@ paths: %d across %d threads \
     (%d dropped)@ "
    r.subject
    (String.concat ", " r.scenario_names)
    (match r.override_specs with
    | [] -> ""
    | specs -> Printf.sprintf " (weakened: %s)" (String.concat "," specs))
    (List.length r.graph.Sitegraph.sites)
    (List.length (Sitegraph.labeled_modes r.graph))
    (List.length r.graph.Sitegraph.edges)
    r.stats.paths r.stats.threads r.stats.dropped;
  (match defects r with
  | [] -> Format.fprintf ppf "@ no defects at these modes@ "
  | ds ->
      Format.fprintf ppf "@ %d defect(s):@ " (List.length ds);
      List.iter
        (fun (f : Lints.finding) ->
          Format.fprintf ppf "  [%s] %s%s (%s): %s@ " f.Lints.lint
            f.Lints.site
            (match f.Lints.partner with
            | Some p -> " ~ " ^ p
            | None -> "")
            f.Lints.scenario f.Lints.detail)
        ds);
  let cands =
    List.filter
      (fun (f : Lints.finding) -> f.Lints.severity = Lints.Candidate)
      r.findings
  in
  if cands <> [] then
    Format.fprintf ppf "@ %d race candidate pair(s) (over-approximate)@ "
      (List.length r.race_candidates);
  if r.predicted_necessary <> [] then
    Format.fprintf ppf "@ predicted necessary: %s@ "
      (String.concat ", " r.predicted_necessary);
  if r.over_strong <> [] then
    Format.fprintf ppf "@ over-strong candidates: %s@ "
      (String.concat ", " r.over_strong);
  Format.fprintf ppf "@]"

let report_to_json r =
  let finding_json (f : Lints.finding) =
    Jsonout.Obj
      [
        ("lint", Jsonout.Str f.Lints.lint);
        ("severity", Jsonout.Str (Lints.severity_to_string f.Lints.severity));
        ("site", Jsonout.Str f.Lints.site);
        ("partner", Jsonout.opt (fun p -> Jsonout.Str p) f.Lints.partner);
        ("scenario", Jsonout.Str f.Lints.scenario);
        ("detail", Jsonout.Str f.Lints.detail);
      ]
  in
  Jsonout.Obj
    [
      ("subject", Jsonout.Str r.subject);
      ("scenarios", Jsonout.str_list r.scenario_names);
      ("weakened", Jsonout.str_list r.override_specs);
      ("clean", Jsonout.Bool (clean r));
      ( "sites",
        Jsonout.List
          (List.map
             (fun (s : Sitegraph.site) ->
               Jsonout.Obj
                 [
                   ("site", Jsonout.Str s.Sitegraph.key);
                   ( "mode",
                     Jsonout.Str (Sitegraph.kind_to_string s.Sitegraph.kind) );
                   ("labeled", Jsonout.Bool s.Sitegraph.labeled);
                   ("locations", Jsonout.str_list s.Sitegraph.locs);
                   ("reads", Jsonout.Bool s.Sitegraph.reads);
                   ("writes", Jsonout.Bool s.Sitegraph.writes);
                 ])
             r.graph.Sitegraph.sites) );
      ( "may_alias_edges",
        Jsonout.List
          (List.map
             (fun (e : Sitegraph.edge) ->
               Jsonout.Obj
                 [
                   ("a", Jsonout.Str e.Sitegraph.a);
                   ("b", Jsonout.Str e.Sitegraph.b);
                   ("loc", Jsonout.Str e.Sitegraph.loc);
                   ("cross_thread", Jsonout.Bool e.Sitegraph.cross_thread);
                 ])
             r.graph.Sitegraph.edges) );
      ("findings", Jsonout.List (List.map finding_json r.findings));
      ( "race_candidates",
        Jsonout.List
          (List.map
             (fun (a, b) -> Jsonout.str_list [ a; b ])
             r.race_candidates) );
      ("predicted_necessary", Jsonout.str_list r.predicted_necessary);
      ("over_strong_candidates", Jsonout.str_list r.over_strong);
      ( "stats",
        Jsonout.Obj
          [
            ("scenarios", Jsonout.Int r.stats.scenarios);
            ("threads", Jsonout.Int r.stats.threads);
            ("paths", Jsonout.Int r.stats.paths);
            ("dropped", Jsonout.Int r.stats.dropped);
          ] );
    ]
