(* The compass CLI: run litmus tests, client verifications, the spec
   matrix, and the full experiment battery from the command line.

     compass litmus [--gap]
     compass client (mp / mp-weak / spsc / pipeline / resource / es) [--queue ms/hw]
     compass specs [--json FILE]
     compass check --struct KEY [--style STYLE]   (or legacy: check ms/hw/treiber/es)
     compass refine --struct KEY [--method outcomes/simulation] [--strict]
                    [--json FILE] [--expect-violation]
     compass sim (--struct KEY / --all) [--client ID] [--mgc-depth D]
                 [--until-violation] [--strict] [--json FILE]
     compass matrix
     compass dot (ms / hw / treiber / es / exchanger / chaselev)
     compass axioms
     compass analyze races --struct KEY [--strict] [--json FILE]
     compass analyze modes --struct KEY [--prioritize=static] [--strict]
                           [--json FILE]
     compass analyze static (--struct KEY / --all) [--weaken SITE=MODE]
                            [--strict] [--json FILE]
     compass replay [--script N,N,...] [--weaken SITE=MODE] [--struct KEY]
                    [--refine-client I] [--sim-client ID [--mgc-depth D]]
     compass fuzz --struct KEY [--mode uniform/pct/guided]
                  [--pct-depth D] [--execs N] [--seed S] [--jobs N]
                  [--corpus FILE] [--json FILE] [--expect-violation]
     compass shrink --script N,N,... [--struct KEY] [--weaken SITE=MODE]
     compass report [--quick]

   Structure keys ([--struct]) resolve through the central spec registry
   (Specreg; [compass specs] lists them).  Every exploring subcommand
   also takes [--jobs N] (N domains share the DFS by work stealing),
   [--reduce[=sleep|dpor|dpor-rf|none]] (partial-order reduction: sleep
   sets, source-DPOR with wakeup sequences, or source-DPOR counting one
   execution per reads-from class; bare [--reduce] means sleep),
   and [--incremental BOOL] (checkpoint/restore exploration, default on;
   false = replay-from-root oracle).
*)

open Cmdliner
open Compass_rmc
open Compass_machine
open Compass_event
open Compass_spec
open Compass_dstruct
open Compass_clients
open Compass_analysis
module Fz = Compass_fuzz
module Static = Compass_static.Static
module Sim = Compass_sim.Sim
module J = Compass_util.Jsonout

(* -- shared arguments --------------------------------------------------------- *)

let execs =
  let doc = "Execution budget for exhaustive (DFS) exploration." in
  Arg.(value & opt int 100_000 & info [ "execs"; "e" ] ~docv:"N" ~doc)

let random_mode =
  let doc = "Use seeded random sampling instead of exhaustive DFS." in
  Arg.(value & flag & info [ "random" ] ~doc)

let seed =
  let doc = "Seed for random exploration." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs =
  let doc =
    "Run the exhaustive DFS on $(docv) domains, which share its task tree \
     by work stealing (1 = a single worker)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* A bare [--reduce] means [sleep]: the flag began life as a plain
   switch for sleep sets. *)
let reduction_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "sleep" -> Ok Machine.RSleep
    | "dpor" -> Ok Machine.RDpor
    | "dpor-rf" | "dporrf" | "rf" -> Ok Machine.RDporRf
    | "none" -> Ok Machine.RNone
    | _ ->
        Error
          (`Msg
             (Printf.sprintf
                "invalid reduction %S (expected 'sleep', 'dpor', 'dpor-rf' \
                 or 'none')"
                s))
  in
  let print ppf r =
    Format.pp_print_string ppf
      (match r with
      | Machine.RNone -> "none"
      | Machine.RSleep -> "sleep"
      | Machine.RDpor -> "dpor"
      | Machine.RDporRf -> "dpor-rf")
  in
  Arg.conv (parse, print)

let reduce =
  let doc =
    "Partial-order reduction: $(b,sleep) (sleep sets: skip interleavings      that only reorder independent steps), $(b,dpor) (source-DPOR with      wakeup sequences: near one execution per Mazurkiewicz trace),      $(b,dpor-rf) (source-DPOR plus the reads-from reduction: one counted      execution per distinct rfâmo class) or $(b,none).  Bare      $(b,--reduce) means $(b,sleep).  Verdicts and violations are the      same under all of them; only the execution count shrinks."
  in
  Arg.(
    value
    & opt ~vopt:Machine.RSleep reduction_conv Machine.RNone
    & info [ "reduce" ] ~docv:"RED" ~doc)

let incremental =
  let doc =
    "Incremental checkpoint/restore exploration (default on): backtrack \
     by restoring machine snapshots and re-execute only decision \
     suffixes.  $(b,--incremental=false) replays every execution from \
     the root — the differential-testing oracle, with identical reports."
  in
  Arg.(value & opt bool true & info [ "incremental" ] ~docv:"BOOL" ~doc)

let queue_arg =
  let impls =
    Arg.enum [ ("ms", Msqueue.instantiate); ("hw", Hwqueue.instantiate) ]
  in
  let doc = "Queue implementation: $(b,ms) (Michael-Scott) or $(b,hw) (Herlihy-Wing)." in
  Arg.(value & opt impls Msqueue.instantiate & info [ "queue"; "q" ] ~docv:"IMPL" ~doc)

let style_arg =
  let impls =
    Arg.enum
      [
        ("hb", Styles.Hb);
        ("so-abs", Styles.So_abs);
        ("hb-abs", Styles.Hb_abs);
        ("hist", Styles.Hist);
        ("sc-abs", Styles.Sc_abs);
      ]
  in
  let doc =
    "Spec style to check: $(b,hb), $(b,so-abs), $(b,hb-abs), $(b,hist), or \
     $(b,sc-abs)."
  in
  Arg.(value & opt impls Styles.Hb & info [ "style"; "s" ] ~docv:"STYLE" ~doc)

let run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental sc =
  if random then Explore.random ~execs ~seed sc
  else Explore.dfs ~jobs ~max_execs:execs ~reduce ~incremental sc

let finish report =
  Format.printf "%a@." Explore.pp_report report;
  if Explore.ok report then 0 else 1

(* Structure keys resolve through the central spec registry. *)

let struct_arg =
  let doc =
    Printf.sprintf "Registered structure ($(b,compass specs) lists them): %s."
      (String.concat ", "
         (List.map (fun k -> Printf.sprintf "$(b,%s)" k) (Specreg.keys ())))
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "struct" ] ~docv:"KEY" ~doc)

let json_arg =
  let doc = "Also write the analysis report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let write_json ?seed ~tool path json =
  Compass_util.Report.write ?seed ~tool ~file:path json;
  Format.printf "JSON report written to %s@." path

let with_entry key f =
  match Specreg.find key with
  | Some e -> f e
  | None ->
      Format.eprintf "unknown structure %s (try: %s)@." key
        (String.concat ", " (Specreg.keys ()));
      2

(* CI gate: [--strict] turns findings into a nonzero exit, not just
   internal errors (race pairs for [analyze races], over-strong/unknown
   verdicts for [modes], expectation mismatches for [static], registry
   expectation mismatches and passes from unfinished searches for
   [refine]/[sim]). *)
let strict_arg =
  let doc =
    "Strict exit code: exit nonzero on any finding or expectation \
     mismatch, not only on errors — for CI gates.  For $(b,refine) and \
     $(b,sim), a pass from a search that hit its execution budget (or \
     whose commit-point search gave up) also fails."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let mgc_depth_arg =
  let doc =
    "Most-general-client enumeration bound: per-thread operation \
     sequences up to $(docv) requests (with every release/acquire \
     flag-handoff position)."
  in
  Arg.(value & opt int 2 & info [ "mgc-depth" ] ~docv:"D" ~doc)

(* -- litmus -------------------------------------------------------------------- *)

let litmus_cmd =
  let gap =
    let doc = "Use the Gap timestamp policy (enables mo-middle insertion, e.g. 2+2W)." in
    Arg.(value & flag & info [ "gap" ] ~doc)
  in
  let run gap execs jobs reduce incremental =
    let config =
      { Machine.default_config with policy = (if gap then `Gap else `Append) }
    in
    let tests =
      Litmus.all () @ if gap then [ Litmus.two_two_w () ] else []
    in
    let code = ref 0 in
    List.iter
      (fun (t : Litmus.t) ->
        let ok, report, obs =
          Litmus.verdict ~max_execs:execs ~config ~jobs ~reduce ~incremental t
        in
        if not ok then code := 1;
        Format.printf "%-12s %-42s expect %-10s observed %-8d execs %-8d %s@."
          report.Explore.name t.Litmus.descr
          (match t.Litmus.expect with
          | `Observable -> "observable"
          | `Forbidden -> "forbidden")
          obs report.Explore.executions
          (if ok then "OK" else "FAIL"))
      tests;
    !code
  in
  let doc = "Run the litmus-test battery against the ORC11 substrate." in
  Cmd.v (Cmd.info "litmus" ~doc)
    Term.(
      const run $ gap $ execs $ jobs $ reduce $ incremental)

(* -- client -------------------------------------------------------------------- *)

let client_cmd =
  let which =
    let doc =
      "Client to verify: $(b,mp), $(b,mp-weak), $(b,spsc), $(b,pipeline), \
       $(b,resource), $(b,es), $(b,mp-stack), $(b,strong-fifo), $(b,ws), or \
       $(b,ws-weak)."
    in
    Arg.(
      required
      & pos 0 (some (enum
                       [
                         ("mp", `Mp);
                         ("mp-weak", `Mp_weak);
                         ("spsc", `Spsc);
                         ("pipeline", `Pipeline);
                         ("resource", `Resource);
                         ("es", `Es);
                         ("mp-stack", `Mp_stack);
                         ("strong-fifo", `Strong_fifo);
                         ("ws", `Ws);
                         ("ws-weak", `Ws_weak);
                       ]))
          None
      & info [] ~docv:"CLIENT" ~doc)
  in
  let run which factory random execs seed jobs reduce incremental =
    match which with
    | `Mp ->
        let st = Mp.fresh_stats () in
        let r = run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental (Mp.make factory st) in
        let code = finish r in
        Format.printf "%a@." Mp.pp_stats st;
        if st.Mp.right_empty > 0 then 1 else code
    | `Mp_weak ->
        let st = Mp.fresh_stats () in
        let r = run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental (Mp.make_weak factory st) in
        let code = finish r in
        Format.printf "%a@." Mp.pp_stats st;
        Format.printf
          "(the empty outcome above is the point: no synchronisation, no \
           exclusion)@.";
        code
    | `Spsc ->
        let st = Spsc_client.fresh_stats () in
        let r =
          run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental (Spsc_client.make ~n:3 factory st)
        in
        finish r
    | `Pipeline ->
        let st = Pipeline.fresh_stats () in
        let r =
          run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental
            (Pipeline.make ~n:2 factory Hwqueue.instantiate st)
        in
        finish r
    | `Resource ->
        let st = Resource_exchange.fresh_stats () in
        let r =
          run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental (Resource_exchange.make ~threads:2 st)
        in
        let code = finish r in
        Format.printf "swaps %d, failed exchanges %d@."
          st.Resource_exchange.swaps st.Resource_exchange.fails;
        code
    | `Es ->
        let st = Es_compose.fresh_stats () in
        let r =
          run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental
            (Es_compose.make ~pushers:2 ~poppers:2 ~ops:1 st)
        in
        let code = finish r in
        Format.printf "ops via base stack %d, eliminated pairs %d@."
          st.Es_compose.via_base st.Es_compose.eliminated;
        code
    | `Mp_stack ->
        let st = Mp_stack.fresh_stats () in
        let r =
          run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental (Mp_stack.make Treiber.instantiate st)
        in
        let code = finish r in
        Format.printf "right pop: got %d, empty %d@." st.Mp_stack.right_got
          st.Mp_stack.right_empty;
        code
    | `Strong_fifo ->
        let st = Strong_fifo.fresh_stats () in
        let r = run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental (Strong_fifo.make factory st) in
        let code = finish r in
        let broke = ref 0 in
        let rc =
          run_mode ~random ~execs:(execs / 2) ~seed ~jobs ~reduce ~incremental
            (Strong_fifo.make_control factory broke)
        in
        Format.printf
          "bare control: lhb non-total in %d/%d executions (the lock is what \
           upgrades the guarantee)@."
          !broke rc.Explore.executions;
        code
    | `Ws ->
        let st = Ws_client.fresh_stats () in
        let r =
          run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental
            (Ws_client.make ~tasks:2 ~thieves:1 ~steals:1 st)
        in
        let code = finish r in
        Format.printf "%a@." Ws_client.pp_stats st;
        code
    | `Ws_weak ->
        let st = Ws_client.fresh_stats () in
        let r =
          Explore.random ~execs ~seed
            (Ws_client.make ~weak_fences:true ~tasks:2 ~thieves:1 ~steals:2 st)
        in
        ignore (finish r);
        Format.printf
          "(violations above are the POINT: the double-take the SC fences \
           prevent)@.";
        0
  in
  let doc = "Model-check one of the paper's client verifications." in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ which $ queue_arg $ random_mode $ execs $ seed $ jobs $ reduce
      $ incremental)

(* -- check --------------------------------------------------------------------- *)

let check_cmd =
  let which =
    let doc =
      "Implementation (legacy positional form; prefer $(b,--struct)): \
       $(b,ms), $(b,hw), $(b,treiber), or $(b,es)."
    in
    Arg.(
      value
      & pos 0 (some (enum
                       [
                         ("ms", `Q Msqueue.instantiate);
                         ("hw", `Q Hwqueue.instantiate);
                         ("treiber", `S Treiber.instantiate);
                         ("es", `S Elimination.instantiate);
                       ]))
          None
      & info [] ~docv:"IMPL" ~doc)
  in
  let struct_key =
    let doc =
      Printf.sprintf
        "Registered structure to check ($(b,compass specs) lists them): %s."
        (String.concat ", "
           (List.map (fun k -> Printf.sprintf "$(b,%s)" k) (Specreg.keys ())))
    in
    Arg.(value & opt (some string) None & info [ "struct" ] ~docv:"KEY" ~doc)
  in
  let threads =
    Arg.(value & opt int 2 & info [ "threads"; "t" ] ~docv:"N"
           ~doc:"Producer and consumer threads (each).")
  in
  let ops =
    Arg.(value & opt int 1 & info [ "ops"; "o" ] ~docv:"N"
           ~doc:"Operations per thread.")
  in
  let run which struct_key style threads ops random execs seed jobs reduce
      incremental =
    let impl =
      match (struct_key, which) with
      | Some key, _ -> (
          match Specreg.find key with
          | None ->
              Error
                (Printf.sprintf "unknown structure %s (try: %s)" key
                   (String.concat ", " (Specreg.keys ())))
          | Some e -> (
              match e.Libspec.impl with
              | Specreg.Queue f -> Ok (`Q f)
              | Specreg.Stack f -> Ok (`S f)
              | _ ->
                  Error
                    (Printf.sprintf
                       "%s has no generic workload factory — run its \
                        registered clients via compass analyze/fuzz"
                       key)))
      | None, Some w -> Ok w
      | None, None -> Error "give --struct KEY (or a positional IMPL)"
    in
    match impl with
    | Error msg ->
        Format.eprintf "%s@." msg;
        2
    | Ok w ->
        let sc =
          match w with
          | `Q f ->
              Harness.queue_workload ~style f ~enqers:threads ~deqers:threads
                ~ops ()
          | `S f ->
              Harness.stack_workload ~style f ~pushers:threads ~poppers:threads
                ~ops ()
        in
        finish
          (run_mode ~random ~execs ~seed ~jobs ~reduce ~incremental sc)
  in
  let doc =
    "Explore a workload on an implementation (resolved through the spec \
     registry with $(b,--struct)) and check a spec style on every \
     execution."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ which $ struct_key $ style_arg $ threads $ ops $ random_mode
      $ execs $ seed $ jobs $ reduce $ incremental)

(* -- specs --------------------------------------------------------------------- *)

let specs_cmd =
  let run json =
    Format.printf "%-10s %-16s %-9s %-14s %-8s %s@." "key" "impl" "spec"
      "sites" "clients" "ladder (expected)";
    List.iter
      (fun (e : Libspec.entry) ->
        let ladder =
          match e.Libspec.ladder with
          | [] -> "-"
          | l ->
              String.concat " "
                (List.map
                   (fun (s, sat) ->
                     Printf.sprintf "%s:%s" (Libspec.style_name s)
                       (if sat then "sat" else "fail"))
                   l)
        in
        let flags =
          (if e.Libspec.expect_violation then " [expect-violation]" else "")
          ^ if e.Libspec.refinable then " [refinable]" else ""
        in
        Format.printf "%-10s %-16s %-9s %-14s %-8d %s%s@." e.Libspec.key
          e.Libspec.struct_name e.Libspec.spec.Libspec.name
          (match e.Libspec.site_prefix with Some p -> p ^ "*" | None -> "-")
          (List.length e.Libspec.scenarios)
          ladder flags)
      (Specreg.all ());
    Option.iter
      (fun file ->
        (* Site metadata comes from the static analyzer's symbolic
           discovery (Specreg.sites) — labels and declared modes, no
           exploration. *)
        let entry_json (e : Libspec.entry) =
          J.Obj
            [
              ("key", J.Str e.Libspec.key);
              ("struct", J.Str e.Libspec.struct_name);
              ("spec", J.Str e.Libspec.spec.Libspec.name);
              ("descr", J.Str e.Libspec.descr);
              ("site_prefix", J.opt (fun p -> J.Str p) e.Libspec.site_prefix);
              ("clients", J.Int (List.length e.Libspec.scenarios));
              ( "ladder",
                J.List
                  (List.map
                     (fun (s, sat) ->
                       J.Obj
                         [
                           ("style", J.Str (Libspec.style_name s));
                           ("satisfied", J.Bool sat);
                         ])
                     e.Libspec.ladder) );
              ("expect_violation", J.Bool e.Libspec.expect_violation);
              ("refinable", J.Bool e.Libspec.refinable);
              ( "sites",
                J.List
                  (List.map
                     (fun (site, mode) ->
                       J.Obj [ ("site", J.Str site); ("mode", J.Str mode) ])
                     (Specreg.sites e)) );
            ]
        in
        write_json ~tool:"specs" file
          (J.Obj
             [
               ( "structures",
                 J.List (List.map entry_json (Specreg.all ())) );
             ]))
      json;
    0
  in
  let doc =
    "List the spec registry: every structure with its spec, instrumented \
     sites, registered clients, and expected spec-style ladder.  With \
     $(b,--json), also emit per-site metadata (label and declared mode, \
     discovered by the static linter's symbolic evaluation)."
  in
  Cmd.v (Cmd.info "specs" ~doc) Term.(const run $ json_arg)

(* -- refine -------------------------------------------------------------------- *)

let refine_cmd =
  let expect_violation =
    let doc =
      "Invert the exit code: succeed only if refinement fails (for \
       known-broken fixtures in CI)."
    in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  let method_arg =
    let doc =
      "Refinement method: $(b,outcomes) (per-client outcome inclusion in \
       the exhaustively explored spec object) or $(b,simulation) \
       (stepwise forward simulation over most-general clients — \
       strictly stronger; see $(b,compass sim))."
    in
    Arg.(
      value
      & opt (enum [ ("outcomes", `Outcomes); ("simulation", `Simulation) ])
          `Outcomes
      & info [ "method" ] ~docv:"METHOD" ~doc)
  in
  (* Exit-code policy shared with [compass sim]: [--strict] compares the
     verdict against the registry's [expect_violation] expectation (like
     [analyze static]), so checked-in broken fixtures gate as green when
     they do fail — and a pass counts only from a complete search. *)
  let exit_code ~strict ~expect ~expect_violation ~complete ok =
    if strict then
      if ok then if expect_violation || not complete then 1 else 0
      else if expect_violation then 0
      else 1
    else if expect then if ok then 1 else 0
    else if ok then 0
    else 1
  in
  let run struct_key execs jobs reduce meth depth strict json expect =
    with_entry struct_key (fun e ->
        if not e.Libspec.refinable then begin
          Format.eprintf "structure %s is not refinable@." struct_key;
          2
        end
        else
          match meth with
          | `Outcomes ->
              let options =
                { Refine.default_options with max_execs = execs; jobs; reduce }
              in
              let r = Refine.run ~options e in
              Format.printf "%a@." Refine.pp r;
              (match r.Refine.counterexample with
              | Some (i, f) ->
                  Format.printf
                    "replay it: compass replay --struct %s --refine-client %d \
                     --script %s@."
                    struct_key i
                    (String.concat ","
                       (List.map string_of_int
                          (Array.to_list (Explore.failure_script f))))
              | None -> ());
              Option.iter
                (fun file ->
                  write_json ~tool:"refine" file (Refine.to_json r))
                json;
              exit_code ~strict ~expect
                ~expect_violation:e.Libspec.expect_violation
                ~complete:r.Refine.complete r.Refine.ok
          | `Simulation ->
              let options =
                {
                  Sim.default_options with
                  mgc_depth = depth;
                  max_execs = execs;
                  jobs;
                  reduce;
                }
              in
              let r = Sim.run ~options e in
              Format.printf "%a@." Sim.pp r;
              (match r.Sim.witness with
              | Some w ->
                  Format.printf
                    "replay it: compass replay --struct %s --sim-client %s \
                     --script %s@."
                    struct_key w.Sim.w_client
                    (String.concat ","
                       (List.map string_of_int
                          (Array.to_list (Decision.choices w.Sim.w_trace))))
              | None -> ());
              Option.iter
                (fun file -> write_json ~tool:"refine" file (Sim.to_json r))
                json;
              exit_code ~strict ~expect
                ~expect_violation:e.Libspec.expect_violation
                ~complete:r.Sim.complete r.Sim.ok)
  in
  let doc =
    "Check refinement of an implementation against its spec object \
     (spec-as-implementation).  $(b,--method=outcomes): for each \
     observation client, every implementation outcome must be admitted \
     by the exhaustively explored spec object, and no execution may \
     fault.  $(b,--method=simulation): stepwise forward simulation over \
     generated most-general clients.  Violations come with replayable \
     counterexample scripts; $(b,--strict) gates against the registry's \
     expectation."
  in
  Cmd.v (Cmd.info "refine" ~doc)
    Term.(
      const run $ struct_arg $ execs $ jobs $ reduce $ method_arg
      $ mgc_depth_arg $ strict_arg $ json_arg $ expect_violation)

(* -- sim ------------------------------------------------------------------------ *)

let sim_cmd =
  let struct_opt_arg =
    let doc = "Check one registered structure ($(b,compass specs) lists them)." in
    Arg.(value & opt (some string) None & info [ "struct" ] ~docv:"KEY" ~doc)
  in
  let all_arg =
    let doc = "Check every refinable registered structure." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let client_arg =
    let doc =
      "Restrict to one generated client id (e.g. $(b,ii|r+h2.1)) instead \
       of the whole family."
    in
    Arg.(value & opt (some string) None & info [ "client" ] ~docv:"ID" ~doc)
  in
  let until_arg =
    let doc =
      "Stop at the first breaking client (time-to-witness mode)."
    in
    Arg.(value & flag & info [ "until-violation" ] ~doc)
  in
  (* Like the analyzers, simulation defaults to sleep-set reduction: the
     verdict is reduction-invariant (it only reads event graphs, which
     reductions preserve per Mazurkiewicz trace), so reduction is pure
     speedup. *)
  let sim_reduce =
    let doc =
      "Partial-order reduction (default $(b,sleep); $(b,dpor) switches \
       to source-DPOR, $(b,--reduce=none) explores the full tree).  \
       Simulation verdicts are invariant under all three."
    in
    Arg.(
      value
      & opt ~vopt:Machine.RSleep reduction_conv Machine.RSleep
      & info [ "reduce" ] ~docv:"RED" ~doc)
  in
  let sim_execs =
    let doc = "Exploration budget per generated client." in
    Arg.(value & opt int 50_000 & info [ "execs"; "e" ] ~docv:"N" ~doc)
  in
  let run struct_opt all client depth execs jobs reduce incremental until
      strict json =
    let entries =
      match (struct_opt, all) with
      | Some key, false -> (
          match Specreg.find key with
          | Some e -> Ok [ e ]
          | None -> Error key)
      | None, true ->
          Ok (List.filter (fun e -> e.Libspec.refinable) (Specreg.all ()))
      | Some _, true -> Error "--struct and --all are exclusive"
      | None, false -> Error "one of --struct or --all is required"
    in
    match entries with
    | Error what ->
        Format.eprintf "compass sim: %s (try: %s)@." what
          (String.concat ", " (Specreg.keys ()));
        2
    | Ok entries ->
        let options =
          {
            Sim.default_options with
            mgc_depth = depth;
            max_execs = execs;
            jobs;
            reduce;
            incremental;
            until_violation = until;
            only_client = client;
          }
        in
        let code = ref 0 in
        let reports =
          List.map
            (fun (e : Libspec.entry) ->
              if not e.Libspec.refinable then begin
                Format.eprintf "structure %s is not refinable@."
                  e.Libspec.key;
                code := 2;
                None
              end
              else begin
                let r = Sim.run ~options e in
                Format.printf "%a@." Sim.pp r;
                (match r.Sim.witness with
                | Some w ->
                    Format.printf
                      "replay it: compass replay --struct %s --sim-client \
                       %s --mgc-depth %d --script %s@."
                      e.Libspec.key w.Sim.w_client depth
                      (String.concat ","
                         (List.map string_of_int
                            (Array.to_list (Decision.choices w.Sim.w_trace))))
                | None -> ());
                let mismatch = r.Sim.ok = e.Libspec.expect_violation in
                let unfinished = r.Sim.ok && not r.Sim.complete in
                let bad =
                  if strict then mismatch || unfinished else not r.Sim.ok
                in
                if bad && !code = 0 then code := 1;
                if strict && mismatch then
                  Format.printf
                    "EXPECTATION MISMATCH: %s %s but the registry expects \
                     %s@."
                    e.Libspec.key
                    (if r.Sim.ok then "simulates" else "breaks")
                    (if e.Libspec.expect_violation then "a violation"
                     else "success")
                else if strict && unfinished then
                  Format.printf
                    "INCOMPLETE: %s found no violation but the search did \
                     not finish; --strict needs a complete one@."
                    e.Libspec.key;
                Some r
              end)
            entries
          |> List.filter_map Fun.id
        in
        Option.iter
          (fun file ->
            let json =
              match reports with
              | [ r ] -> Sim.to_json r
              | rs -> J.Obj [ ("structures", J.List (List.map Sim.to_json rs)) ]
            in
            write_json ~tool:"sim" file json)
          json;
        !code
  in
  let doc =
    "Forward-simulation refinement over most-general clients: enumerate \
     the observationally complete two-thread client family from the \
     structure's op signature, exhaustively explore each client, and \
     match every execution's commit points against the spec object's \
     labelled transitions under the view-aware abstraction relation.  A \
     failure yields a shrunk, replayable witness naming the exact commit \
     point (or faulting step) where the abstraction relation breaks."
  in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      const run $ struct_opt_arg $ all_arg $ client_arg $ mgc_depth_arg
      $ sim_execs $ jobs $ sim_reduce $ incremental $ until_arg
      $ strict_arg $ json_arg)

(* -- matrix --------------------------------------------------------------------- *)

let matrix_cmd =
  let run execs jobs reduce =
    let cells =
      Experiments.matrix ~dfs_execs:execs ~rand_execs:(execs / 10) ~jobs ~reduce
        ()
    in
    Format.printf "%a" Experiments.pp_matrix cells;
    0
  in
  let doc =
    "Run the spec-style satisfaction matrix (experiment E2): every \
     implementation against every spec style."
  in
  Cmd.v (Cmd.info "matrix" ~doc) Term.(const run $ execs $ jobs $ reduce)

(* -- dot ------------------------------------------------------------------------ *)

let dot_cmd =
  let which =
    let doc = "Structure to sample: $(b,ms), $(b,hw), $(b,treiber), $(b,es), $(b,exchanger), $(b,chaselev)." in
    Arg.(
      required
      & pos 0 (some (enum [ ("ms", `Ms); ("hw", `Hw); ("treiber", `Tr); ("es", `Es); ("exchanger", `Ex); ("chaselev", `Cl) ])) None
      & info [] ~docv:"IMPL" ~doc)
  in
  let run which seed =
    (* Sample one contended finished execution and dump its graph(s). *)
    let rec sample seed (build : Machine.t -> Value.t Prog.t list * Graph.t list) =
      let m = Machine.create () in
      let threads, graphs = build m in
      Machine.spawn m threads;
      match Machine.run m (Oracle.random ~seed) with
      | Machine.Finished _ -> graphs
      | _ -> sample (seed + 1) build
    in
    let vi n = Value.Int n in
    let queue_build (factory : Iface.queue_factory) m =
      let q = factory.make_queue m ~name:"q" in
      ( [
          Prog.returning_unit (Prog.seq [ q.Iface.enq (vi 1); q.Iface.enq (vi 2) ]);
          Prog.bind (q.Iface.deq ()) (fun _ -> q.Iface.deq ());
        ],
        [ q.Iface.q_graph ] )
    in
    let stack_build (factory : Iface.stack_factory) m =
      let s = factory.make_stack m ~name:"s" in
      ( [
          Prog.returning_unit (Prog.seq [ s.Iface.push (vi 1); s.Iface.push (vi 2) ]);
          Prog.bind (s.Iface.pop ()) (fun _ -> s.Iface.pop ());
        ],
        [ s.Iface.s_graph ] )
    in
    let graphs =
      match which with
      | `Ms -> sample seed (queue_build Msqueue.instantiate)
      | `Hw -> sample seed (queue_build Hwqueue.instantiate)
      | `Tr -> sample seed (stack_build Treiber.instantiate)
      | `Es ->
          sample seed (fun m ->
              let t = Elimination.create m ~name:"es" in
              ( [
                  Prog.returning_unit (Elimination.push t (vi 1));
                  Prog.bind (Elimination.pop t) (fun _ -> Prog.return Value.Unit);
                ],
                [
                  Elimination.graph t;
                  Treiber.graph t.Elimination.base;
                  Exchanger.graph t.Elimination.ex;
                ] ))
      | `Ex ->
          sample seed (fun m ->
              let x = Exchanger.create m ~name:"x" in
              ( [ Exchanger.exchange x (vi 1); Exchanger.exchange x (vi 2) ],
                [ Exchanger.graph x ] ))
      | `Cl ->
          sample seed (fun m ->
              let t = Chaselev.create m ~name:"dq" in
              let owner =
                Prog.bind
                  (Prog.seq [ Chaselev.push t (vi 1); Chaselev.push t (vi 2) ])
                  (fun () -> Chaselev.pop t)
              in
              ([ owner; Chaselev.steal t ], [ Chaselev.graph t ]))
    in
    List.iter (fun g -> print_string (Graph.to_dot g)) graphs;
    0
  in
  let doc = "Sample one execution and print its event graph(s) as DOT." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ which $ seed)

(* -- axioms ------------------------------------------------------------------------ *)

let axioms_cmd =
  let run execs jobs reduce incremental =
    (* Differential validation: every execution of the litmus battery and
       a workload per structure must satisfy the RC11 axioms when rebuilt
       declaratively from the recorded accesses. *)
    let config = { Machine.default_config with record_accesses = true } in
    let with_rc11 (sc : Explore.scenario) =
      {
        sc with
        Explore.build =
          (fun m ->
            let judge = sc.Explore.build m in
            fun outcome ->
              match judge outcome with
              | Explore.Pass -> (
                  match outcome with
                  | Machine.Finished _ -> (
                      match Rc11.check (Machine.accesses m) with
                      | [] -> Explore.Pass
                      | v :: _ -> Explore.Violation v)
                  | _ -> Explore.Pass)
              | other -> other);
      }
    in
    let code = ref 0 in
    let run_sc sc =
      let r =
        Explore.dfs ~jobs ~max_execs:execs ~reduce ~incremental
          ~config (with_rc11 sc)
      in
      if not (Explore.ok r) then code := 1;
      Format.printf "%-38s %7d executions  %s@." r.Explore.name
        r.Explore.executions
        (if Explore.ok r then "axioms OK" else "AXIOM VIOLATION")
    in
    List.iter (fun (t : Litmus.t) -> run_sc t.Litmus.scenario) (Litmus.all ());
    run_sc (Harness.queue_workload Msqueue.instantiate ~enqers:2 ~deqers:1 ~ops:1 ());
    run_sc (Harness.queue_workload Hwqueue.instantiate ~enqers:2 ~deqers:1 ~ops:1 ());
    run_sc (Harness.stack_workload Treiber.instantiate ~pushers:2 ~poppers:1 ~ops:1 ());
    run_sc (Harness.exchanger_workload ~threads:2 ());
    !code
  in
  let doc =
    "Differentially validate the operational semantics against the RC11 \
     axioms (po/rf/mo/fr/sw/hb rebuilt from recorded accesses)."
  in
  Cmd.v (Cmd.info "axioms" ~doc)
    Term.(const run $ execs $ jobs $ reduce $ incremental)

(* -- analyze ----------------------------------------------------------------------- *)

(* Unlike the exploring subcommands, analysis defaults to sleep-set
   reduction: the audit needs *complete* explorations to call a mode
   over-strong, and reduction keeps them small without losing
   violations. *)
let analyze_reduce =
  let doc =
    "Partial-order reduction (default $(b,sleep); $(b,dpor) switches to \
     source-DPOR, $(b,--reduce=none) explores the full tree)."
  in
  Arg.(
    value
    & opt ~vopt:Machine.RSleep reduction_conv Machine.RSleep
    & info [ "reduce" ] ~docv:"RED" ~doc)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let analyze_races_cmd =
  let run struct_key execs reduce incremental strict json =
    with_entry struct_key (fun e ->
        let agg = Races.agg_create () in
        let config =
          { Machine.default_config with record_accesses = true }
        in
        List.iter
          (fun mk ->
            let sc =
              Instrument.with_accesses (mk ()) (fun log ->
                  Races.agg_add agg log)
            in
            let r =
              Explore.dfs ~max_execs:execs ~reduce ~incremental ~config
                sc
            in
            Format.printf "%-38s %7d executions analysed@." r.Explore.name
              r.Explore.executions)
          e.Libspec.scenarios;
        let s = Races.summary agg in
        Format.printf "@.%a@." Races.pp_summary s;
        Option.iter
          (fun f -> write_json ~tool:"analyze-races" f (Races.summary_to_json s))
          json;
        if s.Races.mismatch_count > 0 then 1
        else if strict && s.Races.total_pairs > 0 then 1
        else 0)
  in
  let doc =
    "Explore a structure's registered clients with access recording on, detect \
     data races per execution with the vector-clock detector, aggregate \
     them by site pair, and differentially check every execution's race \
     set against the RC11 checker's race clause.  (Sequential driver \
     only: the collector is a closure.)"
  in
  Cmd.v (Cmd.info "races" ~doc)
    Term.(
      const run $ struct_arg $ execs $ analyze_reduce $ incremental
      $ strict_arg $ json_arg)

let analyze_modes_cmd =
  let site_arg =
    let doc = "Only audit sites whose label contains $(docv)." in
    Arg.(value & opt (some string) None & info [ "site" ] ~docv:"SUBSTR" ~doc)
  in
  let prioritize_arg =
    let doc =
      "Audit order: $(b,none) (discovery order) or $(b,static) (the \
       static linter's predicted-necessary sites first, their weakest \
       verdict mutant run before the intermediate ones — fewer mutants \
       and executions to the first Necessary verdict)."
    in
    Arg.(
      value
      & opt (Arg.enum [ ("none", `None); ("static", `Static) ]) `None
      & info [ "prioritize" ] ~docv:"ORDER" ~doc)
  in
  let run struct_key execs jobs reduce site prio strict json =
    with_entry struct_key (fun e ->
        let options = { Audit.default_options with execs; jobs; reduce } in
        let site_filter =
          match site with
          | None -> fun _ -> true
          | Some sub -> fun s -> contains ~sub s
        in
        let prioritize, verdict_first =
          match prio with
          | `None -> ([], fun _ -> false)
          | `Static ->
              let st =
                Static.analyze ~subject:e.Libspec.key e.Libspec.scenarios
              in
              let predicted = st.Static.predicted_necessary in
              Format.printf "static priority: %s@."
                (match predicted @ st.Static.over_strong with
                | [] -> "(none)"
                | order -> String.concat ", " order);
              ( predicted @ st.Static.over_strong,
                fun s -> List.mem s predicted )
        in
        let report =
          Audit.run ~options ~site_filter ~prioritize ~verdict_first
            ~log:(fun line -> Format.printf "%s@." line)
            ~probe:e.Libspec.key e.Libspec.scenarios
        in
        Format.printf "@.%a@." Audit.pp_report report;
        Option.iter
          (fun f -> write_json ~tool:"analyze-modes" f (Audit.report_to_json report))
          json;
        if not report.Audit.baseline_ok then 1
        else
          let _, over_strong, unknown, _ = Audit.counts report in
          if strict && over_strong + unknown > 0 then 1 else 0)
  in
  let doc =
    "The mode-necessity audit: for every labeled atomic site (and fence) \
     the registered clients exercise, run strictly weaker mutants via mode overrides \
     and classify the site necessary (violation witnessed, with a \
     replayable counterexample script), over-strong (exploration \
     exhausted with no violation), or unknown (budget ran out).  \
     $(b,--prioritize=static) orders the audit by the static linter's \
     prediction; $(b,--strict) exits nonzero on any over-strong or \
     unknown verdict."
  in
  Cmd.v (Cmd.info "modes" ~doc)
    Term.(
      const run $ struct_arg $ execs $ jobs $ analyze_reduce $ site_arg
      $ prioritize_arg $ strict_arg $ json_arg)

let analyze_static_cmd =
  let struct_opt_arg =
    let doc =
      Printf.sprintf "Structure to lint ($(b,compass specs) lists them): %s."
        (String.concat ", "
           (List.map (fun k -> Printf.sprintf "$(b,%s)" k) (Specreg.keys ())))
    in
    Arg.(value & opt (some string) None & info [ "struct" ] ~docv:"KEY" ~doc)
  in
  let all_arg =
    let doc = "Lint every registered structure." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let weaken_arg =
    let doc =
      "Lint under a hypothetical weakening (repeatable): $(b,site=mode), \
       the same specs $(b,compass replay --weaken) takes."
    in
    Arg.(value & opt_all string [] & info [ "weaken" ] ~docv:"SITE=MODE" ~doc)
  in
  let run struct_key all weaken strict json =
    match Override.of_specs weaken with
    | Error e ->
        Format.eprintf "bad --weaken spec: %s@." e;
        2
    | Ok overrides -> (
        let entries =
          match (struct_key, all) with
          | None, true -> Ok (Specreg.all ())
          | Some k, false -> (
              match Specreg.find k with
              | Some e -> Ok [ e ]
              | None ->
                  Error
                    (Printf.sprintf "unknown structure %s (try: %s)" k
                       (String.concat ", " (Specreg.keys ()))))
          | None, false | Some _, true ->
              Error "pass exactly one of --struct KEY or --all"
        in
        match entries with
        | Error msg ->
            Format.eprintf "%s@." msg;
            2
        | Ok entries ->
            let mismatched = ref [] in
            let reports =
              List.map
                (fun (e : Libspec.entry) ->
                  let r =
                    Static.analyze ~overrides ~subject:e.Libspec.key
                      e.Libspec.scenarios
                  in
                  Format.printf "%a@." Static.pp_report r;
                  (* With an explicit [--weaken] the registry expectation
                     does not apply — strict then simply demands a clean
                     report. *)
                  let ok =
                    if Override.is_empty overrides then
                      Static.clean r = not e.Libspec.expect_violation
                    else Static.clean r
                  in
                  Format.printf "verdict: %s%s@.@."
                    (if Static.clean r then "clean" else "flagged")
                    (if ok then ""
                     else if Override.is_empty overrides then
                       Printf.sprintf " (expected %s)"
                         (if e.Libspec.expect_violation then "flagged"
                          else "clean")
                     else "");
                  if not ok then mismatched := e.Libspec.key :: !mismatched;
                  Static.report_to_json r)
                entries
            in
            Option.iter
              (fun f ->
                write_json ~tool:"analyze-static" f
                  (J.Obj [ ("structures", J.List reports) ]))
              json;
            match List.rev !mismatched with
            | [] -> 0
            | keys ->
                Format.eprintf "expectation mismatch: %s@."
                  (String.concat ", " keys);
                if strict then 1 else 0)
  in
  let doc =
    "The static synchronization linter: evaluate a structure's registered \
     clients symbolically over the Prog DSL (no exploration), extract the \
     site/location access graph, and run the lint passes — publication \
     safety, acquire pairing, relaxed-CAS-success misuse, non-atomic race \
     candidates — plus a hypothetical-weakening pass splitting the \
     labeled sites into predicted-necessary and over-strong candidates.  \
     $(b,--strict) exits nonzero when a verdict contradicts the \
     registry's expectation (expect-violation structures must be \
     flagged, the rest clean)."
  in
  Cmd.v (Cmd.info "static" ~doc)
    Term.(
      const run $ struct_opt_arg $ all_arg $ weaken_arg $ strict_arg
      $ json_arg)

let analyze_cmd =
  let doc =
    "Synchronization analysis: per-site race detection, the \
     mode-necessity audit, and the static linter."
  in
  Cmd.group (Cmd.info "analyze" ~doc)
    [ analyze_races_cmd; analyze_modes_cmd; analyze_static_cmd ]

(* -- replay ------------------------------------------------------------------------ *)

let replay_cmd =
  let script_arg =
    let doc =
      "Decision script: comma-separated choices (from a report's \
       counterexample)."
    in
    Arg.(value & opt string "" & info [ "script" ] ~docv:"N,N,..." ~doc)
  in
  let weaken_arg =
    let doc =
      "Weaken a site while replaying (repeatable): $(b,site=mode) with an \
       access mode ($(b,rlx), $(b,acq), $(b,rel), $(b,acq_rel)), a fence \
       mode ($(b,fence_acq), ...), or $(b,drop) — the spec an audit \
       counterexample prints."
    in
    Arg.(value & opt_all string [] & info [ "weaken" ] ~docv:"SITE=MODE" ~doc)
  in
  let probe_arg =
    let doc =
      "Replay against a registered structure's client scenario instead of \
       the plain MP client (same scenarios the audit runs; see \
       $(b,compass analyze))."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "struct"; "probe" ] ~docv:"KEY" ~doc)
  in
  let scenario_arg =
    let doc = "Scenario index within the structure's registered clients \
               (default 0, the MP client)." in
    Arg.(value & opt int 0 & info [ "scenario" ] ~docv:"I" ~doc)
  in
  let refine_client_arg =
    let doc =
      "Replay against the structure's $(docv)-th refinement observation \
       client (judged by spec-object outcome membership) instead of its \
       registered scenarios — for $(b,compass refine) counterexamples."
    in
    Arg.(
      value & opt (some int) None & info [ "refine-client" ] ~docv:"I" ~doc)
  in
  let sim_client_arg =
    let doc =
      "Replay against the generated most-general client $(docv) (judged \
       by the forward-simulation relation) — for $(b,compass sim) \
       witnesses; $(b,--mgc-depth) must cover the id."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "sim-client" ] ~docv:"ID" ~doc)
  in
  let trace_arg =
    let doc =
      "Print the typed decision trace of the replay: one numbered line \
       per decision with its kind (sched/read/cas/ts), source site label \
       and reads-from provenance (which write the choice read)."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let run factory script_str weaken probe scenario_idx refine_client
      sim_client mgc_depth show_trace =
    let script =
      if script_str = "" then [||]
      else
        String.split_on_char ',' script_str
        |> List.map int_of_string |> Array.of_list |> Decision.of_ints
    in
    match Override.of_specs weaken with
    | Error e ->
        Format.eprintf "bad --weaken spec: %s@." e;
        2
    | Ok overrides -> (
        let sc =
          match (probe, refine_client, sim_client) with
          | None, _, _ -> Some (Mp.make factory (Mp.fresh_stats ()))
          | Some key, _, Some id -> (
              match Specreg.find key with
              | Some e -> Sim.client_scenario ~depth:mgc_depth e id
              | None -> None)
          | Some key, Some i, None -> (
              match Specreg.find key with
              | Some e -> Refine.client_scenario e i
              | None -> None)
          | Some key, None, None -> (
              match Specreg.find key with
              | Some e -> (
                  match Specreg.scenario e scenario_idx with
                  | Some mk -> Some (mk ())
                  | None -> None)
              | None -> None)
        in
        match sc with
        | None ->
            Format.eprintf "unknown structure/scenario (try: %s)@."
              (String.concat ", " (Specreg.keys ()));
            2
        | Some sc ->
            (* An override naming a site that does not exist would
               silently replay unweakened; check the labels the static
               analyzer discovers for the chosen probe first. *)
            let valid_sites =
              if Override.is_empty overrides then []
              else
                match probe with
                | Some key -> (
                    match Specreg.find key with
                    | Some e -> List.map fst (Specreg.sites e)
                    | None -> [])
                | None ->
                    List.map fst
                      (Static.site_modes
                         [ (fun () -> Mp.make factory (Mp.fresh_stats ())) ])
            in
            let unknown_sites =
              Override.spec_strings overrides
              |> List.filter_map (fun spec ->
                     match String.index_opt spec '=' with
                     | Some i ->
                         let site = String.sub spec 0 i in
                         if List.mem site valid_sites then None
                         else Some site
                     | None -> None)
            in
            if unknown_sites <> [] then begin
              Format.eprintf
                "unknown --weaken site(s): %s@.valid sites: %s@."
                (String.concat ", " unknown_sites)
                (String.concat ", " valid_sites);
              2
            end
            else begin
            if not (Override.is_empty overrides) then
              Format.printf "weakened: %a@." Override.pp overrides;
            let config = { Machine.default_config with overrides } in
            let r = Explore.replay ~config sc script in
            if r.Explore.r_clamped > 0 then
              Format.printf
                "note: %d out-of-range choice(s) clamped to the last \
                 alternative@."
                r.Explore.r_clamped;
            Format.printf "outcome: %a@.verdict: %s@.@.%a@."
              Machine.pp_outcome r.Explore.r_outcome
              (match r.Explore.r_verdict with
              | Explore.Pass -> "pass"
              | Explore.Violation s -> "VIOLATION: " ^ s
              | Explore.Discard s -> "discard: " ^ s)
              Trace.pp (Machine.trace r.Explore.r_machine);
            if show_trace then
              Format.printf "@.decision trace:@.%a@." Decision.pp_trace
                r.Explore.r_trace;
            0
            end)
  in
  let doc =
    "Replay one execution from a decision script with full tracing — \
     optionally under the same $(b,--weaken) mode overrides an audit \
     mutant ran with, so its counterexamples replay exactly (empty \
     script = first path)."
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run $ queue_arg $ script_arg $ weaken_arg $ probe_arg
      $ scenario_arg $ refine_client_arg $ sim_client_arg $ mgc_depth_arg
      $ trace_arg)

(* -- fuzz ---------------------------------------------------------------------- *)

let scenario_idx_arg =
  let doc = "Scenario index within the structure's registered clients \
             (default 0)." in
  Arg.(value & opt int 0 & info [ "scenario" ] ~docv:"I" ~doc)

let fuzz_cmd =
  let mode_arg =
    let doc =
      "Search strategy: $(b,uniform) (seeded-random baseline), $(b,pct) \
       (priority-based scheduling with change points), or $(b,guided) \
       (coverage-guided corpus mutation)."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("uniform", Fz.Fuzz.Uniform);
               ("pct", Fz.Fuzz.Pct);
               ("guided", Fz.Fuzz.Guided);
             ])
          Fz.Fuzz.Pct
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let pct_depth =
    let doc = "PCT priority change points." in
    Arg.(value & opt int 3 & info [ "pct-depth"; "d" ] ~docv:"D" ~doc)
  in
  let pct_len =
    let doc =
      "Scheduling-decision count PCT samples change points over (0: \
       measure with a pilot execution)."
    in
    Arg.(value & opt int 0 & info [ "pct-len" ] ~docv:"N" ~doc)
  in
  let fuzz_execs =
    let doc = "Fuzzing execution budget." in
    Arg.(value & opt int 4000 & info [ "execs"; "e" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc =
      "Seed the guided corpus from $(docv) (missing file = empty) and save \
       the final corpus back to it."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE" ~doc)
  in
  let shrink_arg =
    let doc = "Shrink the first violation before reporting (default on)." in
    Arg.(value & opt bool true & info [ "shrink" ] ~docv:"BOOL" ~doc)
  in
  let expect_violation =
    let doc =
      "Invert the exit code: succeed only if a violation was found (for \
       known-broken fixtures in CI)."
    in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  let run struct_key scenario_idx mode depth len execs seed jobs corpus shrink
      json expect =
    with_entry struct_key (fun e ->
        match Specreg.scenario e scenario_idx with
        | None ->
            Format.eprintf "structure %s has no scenario %d@." struct_key
              scenario_idx;
            2
        | Some mk ->
            let corpus_in = Option.map Fz.Corpus.load corpus in
            let options =
              {
                Fz.Fuzz.default_options with
                mode;
                execs;
                seed;
                jobs;
                pct_depth = depth;
                sched_len = len;
                shrink;
                corpus_in;
              }
            in
            let o = Fz.Fuzz.run ~options mk in
            Format.printf "%a@." Fz.Fuzz.pp_outcome o;
            let confirmed =
              match o.Fz.Fuzz.violations with
              | [] -> false
              | f :: _ -> (
                  (* the reported (shrunk) script must still replay to the
                     same violation *)
                  let r =
                    Explore.replay ~config:options.Fz.Fuzz.config (mk ())
                      f.Explore.trace
                  in
                  match r.Explore.r_verdict with
                  | Explore.Violation m when m = f.Explore.message ->
                      Format.printf "replay confirms the violation@.";
                      true
                  | _ ->
                      Format.printf
                        "WARNING: replay does not reproduce the violation@.";
                      false)
            in
            Option.iter
              (fun file ->
                Fz.Corpus.save o.Fz.Fuzz.corpus file;
                Format.printf "corpus (%d entries) saved to %s@."
                  (Fz.Corpus.size o.Fz.Fuzz.corpus)
                  file)
              corpus;
            Option.iter
              (fun file ->
                write_json ~tool:"fuzz" ~seed file (Fz.Fuzz.outcome_to_json o))
              json;
            if expect then if confirmed then 0 else 1
            else if o.Fz.Fuzz.violations = [] then 0
            else 1)
  in
  let doc =
    "Schedule-fuzz a structure probe: sample executions under a search \
     strategy (uniform / PCT / coverage-guided) instead of enumerating \
     them, report coverage statistics, and shrink the first violating \
     decision script to 1-minimal form.  Deterministic for a fixed \
     $(b,--seed) at any $(b,--jobs) count."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ struct_arg $ scenario_idx_arg $ mode_arg $ pct_depth
      $ pct_len $ fuzz_execs $ seed $ jobs $ corpus_arg $ shrink_arg
      $ json_arg $ expect_violation)

(* -- shrink -------------------------------------------------------------------- *)

let shrink_cmd =
  let script_arg =
    let doc = "Violating decision script to shrink (comma-separated)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "script" ] ~docv:"N,N,..." ~doc)
  in
  let weaken_arg =
    let doc =
      "Shrink under mode overrides (repeatable): $(b,site=mode), as \
       printed by audit counterexamples."
    in
    Arg.(value & opt_all string [] & info [ "weaken" ] ~docv:"SITE=MODE" ~doc)
  in
  let probe_arg =
    let doc =
      "Shrink against a registered structure's client scenario instead of \
       the plain MP client."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "struct"; "probe" ] ~docv:"KEY" ~doc)
  in
  let max_replays =
    let doc = "Replay budget for the shrinker." in
    Arg.(value & opt int 20_000 & info [ "max-replays" ] ~docv:"N" ~doc)
  in
  let run factory script_str weaken probe scenario_idx max_replays =
    let script =
      String.split_on_char ',' script_str
      |> List.filter (fun s -> s <> "")
      |> List.map int_of_string |> Array.of_list |> Decision.of_ints
    in
    match Override.of_specs weaken with
    | Error e ->
        Format.eprintf "bad --weaken spec: %s@." e;
        2
    | Ok overrides -> (
        let mk =
          match probe with
          | None -> Some (fun () -> Mp.make factory (Mp.fresh_stats ()))
          | Some key -> (
              match Specreg.find key with
              | Some e -> Specreg.scenario e scenario_idx
              | None -> None)
        in
        match mk with
        | None ->
            Format.eprintf "unknown structure/scenario (try: %s)@."
              (String.concat ", " (Specreg.keys ()));
            2
        | Some mk -> (
            let config = { Machine.default_config with overrides } in
            let r = Explore.replay ~config (mk ()) script in
            match r.Explore.r_verdict with
            | Explore.Violation message ->
                let stats, small =
                  Fz.Shrink.minimize ~config ~max_replays ~scenario:(mk ())
                    ~message script
                in
                Format.printf
                  "violation: %s@ script: %d -> %d choices in %d replays%s@ \
                   shrunk: %s@."
                  message stats.Fz.Shrink.initial_len
                  stats.Fz.Shrink.final_len stats.Fz.Shrink.replays
                  (if stats.Fz.Shrink.clamped > 0 then
                     Printf.sprintf " (%d choices clamped)"
                       stats.Fz.Shrink.clamped
                   else "")
                  (String.concat ","
                     (List.map string_of_int
                        (Array.to_list (Decision.choices small))));
                0
            | Explore.Pass | Explore.Discard _ ->
                Format.eprintf
                  "the script does not produce a violation — nothing to \
                   shrink@.";
                1))
  in
  let doc =
    "Delta-debug a violating decision script (e.g. from a fuzz or audit \
     report) down to a 1-minimal script producing the same violation, \
     optionally under the same $(b,--weaken) overrides."
  in
  Cmd.v (Cmd.info "shrink" ~doc)
    Term.(
      const run $ queue_arg $ script_arg $ weaken_arg $ probe_arg
      $ scenario_idx_arg $ max_replays)

(* -- report ---------------------------------------------------------------------- *)

let report_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced budgets (~10x faster).")
  in
  let run quick jobs reduce =
    let t0 = Unix.gettimeofday () in
    let lines = Experiments.all ~quick ~jobs ~reduce () in
    List.iter (fun l -> Format.printf "%a@.@." Experiments.pp_line l) lines;
    Format.printf "E7 reference points from the paper (Section 1.2 / 6):@.";
    List.iter
      (fun (what, figure) -> Format.printf "  %-28s %s@." what figure)
      Experiments.e7_paper_numbers;
    (* One-line synchronization-audit summary (full run: compass analyze
       modes --struct ms). *)
    let e = Option.get (Specreg.find "ms") in
    let options =
      (* reduction always: the summary needs complete explorations to
         tell over-strong from unknown within a sane budget *)
      { Audit.default_options with execs = 12_000; jobs; reduce = Machine.RSleep }
    in
    let ar = Audit.run ~options ~probe:e.Libspec.key e.Libspec.scenarios in
    let n, o, u, mi = Audit.counts ar in
    Format.printf
      "@.sync audit (ms-queue): %d sites audited — %d necessary, %d \
       over-strong, %d unknown, %d minimal@."
      (List.length ar.Audit.sites) n o u mi;
    let ok = List.length (List.filter (fun l -> l.Experiments.ok) lines) in
    Format.printf "@.%d/%d experiments OK in %.1fs@." ok (List.length lines)
      (Unix.gettimeofday () -. t0);
    if ok = List.length lines && ar.Audit.baseline_ok then 0 else 1
  in
  let doc = "Run the full experiment battery (E1-E8) and print paper-vs-measured." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ quick $ jobs $ reduce)

(* -- main ------------------------------------------------------------------------- *)

let () =
  let doc =
    "COMPASS-OCaml: executable relaxed-memory library specifications \
     (PLDI 2022 reproduction)"
  in
  let info = Cmd.info "compass" ~version:Core.version ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            litmus_cmd; client_cmd; specs_cmd; check_cmd; refine_cmd;
            sim_cmd; matrix_cmd; dot_cmd; axioms_cmd; analyze_cmd;
            replay_cmd; fuzz_cmd; shrink_cmd; report_cmd;
          ]))
