(* The compass CLI: run litmus tests, client verifications, the spec
   matrix, and the full experiment battery from the command line.

     compass litmus [--gap]
     compass client (mp / mp-weak / spsc / pipeline / resource / es) [--queue ms/hw]
     compass specs [--json FILE]
     compass check --struct KEY [--style STYLE]
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
     compass replay [--script N,N,...] [--weaken SITE=MODE]
                    [--struct KEY [--sim-client ID [--mgc-depth D]]]
     compass fuzz --struct KEY [--mode uniform/pct/guided]
                  [--pct-depth D] [--execs N] [--seed S] [--jobs N]
                  [--corpus FILE] [--json FILE] [--expect-violation]
     compass shrink --script N,N,... [--struct KEY] [--weaken SITE=MODE]
     compass report [--quick]

   Every flag that several subcommands take is declared once, below, and
   its value is parsed by one converter: structure keys ([--struct])
   resolve through the central spec registry (Specreg; [compass specs]
   lists them), [--script] reads choices like a v1 corpus line,
   [--weaken] specs parse as mode overrides, and numeric flags are
   range-checked.  Every exploring subcommand also takes [--jobs N] (N
   domains share the DFS by work stealing, or split a sample's
   executions) and [--reduce=none|dpor|dpor-rf] (partial-order
   reduction: source-DPOR with wakeup sequences, or source-DPOR
   counting one execution per reads-from class).

   Exit codes: 0 pass, 1 finding, 2 options that conflict with each
   other (a [--weaken] site the structure lacks, a structure that cannot
   be refined, a scenario index out of range, a client id outside the
   generated family, [--sim-client] without [--struct], a reduction on a
   sampled run), 124 usage error (an unknown option, or a malformed or
   out-of-range value).
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
module Mgc = Compass_sim.Mgc
module J = Compass_util.Jsonout

(* -- the option layer ---------------------------------------------------------- *)

(* Converters: a malformed value fails here, as a usage error. *)

let msg fmt = Printf.ksprintf (fun s -> Error (`Msg s)) fmt

let entry_conv =
  let parse key =
    match Specreg.find key with
    | Some e -> Ok e
    | None ->
        msg "unknown structure %s (try: %s)" key
          (String.concat ", " (Specreg.keys ()))
  in
  Arg.conv
    (parse, fun ppf (e : Libspec.entry) -> Format.pp_print_string ppf e.Libspec.key)

let reduction_conv =
  let parse = function
    | "dpor" -> Ok Machine.RDpor
    | "dpor-rf" -> Ok Machine.RDporRf
    | "none" -> Ok Machine.RNone
    | s -> msg "invalid reduction %S (expected 'none', 'dpor' or 'dpor-rf')" s
  in
  let print ppf r =
    Format.pp_print_string ppf
      (match r with
      | Machine.RNone -> "none"
      | Machine.RDpor -> "dpor"
      | Machine.RDporRf -> "dpor-rf")
  in
  Arg.conv (parse, print)

(* An integer from [min] to [max]: a value outside the range is a usage
   error naming it, not a run that clamps or crashes. *)
let int_conv ~what ?(max = max_int) min =
  let range =
    if max < max_int then Printf.sprintf "an integer from %d to %d" min max
    else if min = 0 then "a non-negative integer"
    else Printf.sprintf "an integer >= %d" min
  in
  let parse s =
    match int_of_string_opt s with
    | Some n when min <= n && n <= max -> Ok n
    | _ -> msg "invalid %s %S (expected %s)" what s range
  in
  Arg.conv (parse, Format.pp_print_int)

(* Comma-separated choices, checked like a v1 corpus line: every one a
   non-negative integer.  A choice past a decision's last alternative is
   not malformed; replay clamps it and says so. *)
let pp_script ppf tr =
  Format.pp_print_string ppf
    (String.concat ","
       (List.map string_of_int (Array.to_list (Decision.choices tr))))

let script_conv =
  let parse s =
    match
      Decision.of_choices (if s = "" then [] else String.split_on_char ',' s)
    with
    | Some tr -> Ok tr
    | None ->
        msg "invalid script %S (expected comma-separated non-negative \
             choices)"
          s
  in
  Arg.conv (parse, pp_script)

let weaken_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Override.of_specs [ s ]) in
  Arg.conv (parse, Override.pp)

(* Options shared by several subcommands.  [execs] and [reduce] take the
   subcommand's default: it differs between them. *)

let execs default =
  let doc =
    "Execution budget: the most executions to explore or sample ($(b,sim): \
     per generated client)."
  in
  Arg.(
    value
    & opt (int_conv ~what:"budget" 1) default
    & info [ "execs"; "e" ] ~docv:"N" ~doc)

let reduce default =
  let doc =
    "Partial-order reduction: $(b,dpor) (source-DPOR with wakeup \
     sequences: skip interleavings that only reorder independent steps, \
     near one execution per Mazurkiewicz trace), $(b,dpor-rf) \
     (source-DPOR plus the reads-from reduction: one counted execution per \
     distinct rf⊕mo class) or $(b,none).  $(b,dpor) keeps every verdict \
     and violation of the unreduced search.  $(b,dpor-rf) can miss one: \
     on $(b,ms) with $(b,msqueue.enq.next_load) weakened to $(b,rlx) it \
     completes without the fault the other modes find."
  in
  Arg.(value & opt reduction_conv default & info [ "reduce" ] ~docv:"RED" ~doc)

let random_mode =
  let doc =
    "Use seeded random sampling instead of exhaustive DFS (a reduction \
     conflicts with it)."
  in
  Arg.(value & flag & info [ "random" ] ~doc)

let seed =
  let doc = "Seed for random exploration." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

(* At most 127: OCaml 5.1 runs at most 128 domains, the main one
   included, and a larger count would spawn domains until one fails. *)
let jobs =
  let doc =
    "Run on $(docv) domains (1 = a single worker, at most 127): the DFS \
     shares its task tree by work stealing, a sample deals out its \
     executions by index."
  in
  Arg.(
    value
    & opt (int_conv ~what:"job count" ~max:127 1) 1
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* [--struct KEY]: [Arg.required] where a structure must be named,
   [Arg.value] where the plain MP client stands in for it. *)
let structure =
  let doc =
    Printf.sprintf "Registered structure ($(b,compass specs) lists them): %s."
      (String.concat ", "
         (List.map (fun k -> Printf.sprintf "$(b,%s)" k) (Specreg.keys ())))
  in
  Arg.(opt (some entry_conv) None & info [ "struct" ] ~docv:"KEY" ~doc)

(* [--struct KEY | --all]: exactly one of the two.  [--all] selects every
   registered structure that [keep] admits. *)
let structures ~all_doc ~keep =
  let all = Arg.(value & flag & info [ "all" ] ~doc:all_doc) in
  let pick one all =
    match (one, all) with
    | Some e, false -> `Ok [ e ]
    | None, true -> `Ok (List.filter keep (Specreg.all ()))
    | Some _, true -> `Error (true, "--struct and --all are exclusive")
    | None, false -> `Error (true, "one of --struct or --all is required")
  in
  Term.(ret (const pick $ Arg.value structure $ all))

(* Repeatable [--weaken SITE=MODE], folded into one override in command
   line order (a later spec for the same site wins). *)
let weaken =
  let doc =
    "Weaken a site (repeatable): $(b,site=mode) with an access mode \
     ($(b,rlx), $(b,acq), $(b,rel), $(b,acq_rel)), a fence mode \
     ($(b,fence_acq), ...), or $(b,drop) — the spec an audit \
     counterexample prints."
  in
  let merge acc (o : Override.t) =
    {
      Override.accesses = o.Override.accesses @ acc.Override.accesses;
      fences = o.Override.fences @ acc.Override.fences;
    }
  in
  Term.(
    const (List.fold_left merge Override.empty)
    $ Arg.(value & opt_all weaken_conv [] & info [ "weaken" ] ~docv:"SITE=MODE" ~doc))

let scenario =
  let doc =
    "Scenario index within the structure's registered clients (default 0, \
     the MP client)."
  in
  Arg.(
    value
    & opt (int_conv ~what:"index" 0) 0
    & info [ "scenario" ] ~docv:"I" ~doc)

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
        ("hb", Libspec.Hb);
        ("so-abs", Libspec.So_abs);
        ("hb-abs", Libspec.Hb_abs);
        ("hist", Libspec.Hist);
        ("sc-abs", Libspec.Sc_abs);
      ]
  in
  let doc =
    "Spec style to check: $(b,hb), $(b,so-abs), $(b,hb-abs), $(b,hist), or \
     $(b,sc-abs)."
  in
  Arg.(value & opt impls Libspec.Hb & info [ "style"; "s" ] ~docv:"STYLE" ~doc)

let json_arg =
  let doc = "Also write the analysis report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* CI gate: [--strict] turns findings into a nonzero exit, not just
   internal errors (race pairs for [analyze races], over-strong/unknown
   verdicts for [modes], expectation mismatches for [static], registry
   expectation mismatches and passes from unfinished searches for
   [sim]). *)
let strict_arg =
  let doc =
    "Strict exit code: exit nonzero on any finding or expectation \
     mismatch, not only on errors — for CI gates.  For $(b,sim), a pass \
     from a search that hit its execution budget (or whose commit-point \
     search gave up) also fails."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let mgc_depth_arg =
  let doc =
    "Most-general-client enumeration bound: per-thread operation \
     sequences up to $(docv) requests (with every release/acquire \
     flag-handoff position)."
  in
  Arg.(
    value
    & opt (int_conv ~what:"depth" 1) 2
    & info [ "mgc-depth" ] ~docv:"D" ~doc)

(* [client] and [check] explore under five options: [--random] samples
   [--execs] executions from [--seed] on [--jobs] domains, otherwise the
   DFS runs with the [--execs] budget, [--jobs] and [--reduce].  One
   call may override the budget, or force sampling.  [conflict] is the
   option a sample cannot honour. *)
type explorer = {
  budget : int;
  random : bool;
  conflict : string option;
  explore : ?random:bool -> ?execs:int -> Explore.scenario -> Explore.report;
}

let explorer =
  let make random budget seed jobs reduce =
    let explore ?(random = random) ?(execs = budget) sc =
      if random then Explore.random ~jobs ~execs ~seed sc
      else Explore.dfs ~jobs ~max_execs:execs ~reduce sc
    in
    let conflict =
      if reduce <> Machine.RNone then
        Some
          (Format.asprintf "--reduce=%a" (Arg.conv_printer reduction_conv)
             reduce)
      else None
    in
    { budget; random; conflict; explore }
  in
  Term.(
    const make $ random_mode $ execs 100_000 $ seed $ jobs
    $ reduce Machine.RNone)

(* -- shared output and exit policy ---------------------------------------------- *)

(* A sample has no tree to reduce: a run that samples ([--random], or
   [always] for a client that only samples) under a reduction is a
   two-option error, exit 2. *)
let unless_sampling_conflict ?always ex k =
  match (ex.conflict, if ex.random then Some "--random" else always) with
  | Some opt, Some sampler ->
      Format.eprintf "%s conflicts with %s: a sample has no tree to reduce@."
        opt sampler;
      2
  | _ -> k ()

let finish report =
  Format.printf "%a@." Explore.pp_report report;
  if Explore.ok report then 0 else 1

let write_json ?seed ~tool path json =
  Compass_util.Report.write ?seed ~tool ~file:path json;
  Format.printf "JSON report written to %s@." path

let not_refinable (e : Libspec.entry) =
  Format.eprintf "structure %s is not refinable@." e.Libspec.key

let no_scenario (e : Libspec.entry) idx =
  Format.eprintf "structure %s has no scenario %d@." e.Libspec.key idx

(* The exit code of a [sim] verdict.  [--strict] compares it with the
   registry's [expect_violation] (like [analyze static]), so checked-in
   broken fixtures gate as green when they do fail, and counts a pass
   only from a complete search.  Otherwise a failure exits 1. *)
let verdict_code ~strict (e : Libspec.entry) ~complete ok =
  if strict then
    if ok = e.Libspec.expect_violation || (ok && not complete) then 1 else 0
  else if ok then 0
  else 1

(* -- litmus -------------------------------------------------------------------- *)

let litmus_cmd =
  let gap =
    let doc = "Use the Gap timestamp policy (enables mo-middle insertion, e.g. 2+2W)." in
    Arg.(value & flag & info [ "gap" ] ~doc)
  in
  let run gap execs jobs reduce =
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
          Litmus.verdict ~max_execs:execs ~config ~jobs ~reduce t
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
    Term.(const run $ gap $ execs 100_000 $ jobs $ reduce Machine.RNone)

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
  let run which factory ({ budget; explore; _ } as ex) =
    let always =
      if which = `Ws_weak then Some "client ws-weak, which always samples"
      else None
    in
    unless_sampling_conflict ?always ex @@ fun () ->
    match which with
    | `Mp ->
        let st = Mp.fresh_stats () in
        let code = finish (explore (Mp.make factory st)) in
        Format.printf "%a@." Mp.pp_stats st;
        if Atomic.get st.Mp.right_empty > 0 then 1 else code
    | `Mp_weak ->
        let st = Mp.fresh_stats () in
        let code = finish (explore (Mp.make_weak factory st)) in
        Format.printf "%a@." Mp.pp_stats st;
        Format.printf
          "(the empty outcome above is the point: no synchronisation, no \
           exclusion)@.";
        code
    | `Spsc ->
        let st = Spsc_client.fresh_stats () in
        finish (explore (Spsc_client.make ~n:3 factory st))
    | `Pipeline ->
        let st = Pipeline.fresh_stats () in
        finish (explore (Pipeline.make ~n:2 factory Hwqueue.instantiate st))
    | `Resource ->
        let st = Resource_exchange.fresh_stats () in
        let code = finish (explore (Resource_exchange.make ~threads:2 st)) in
        Format.printf "swaps %d, failed exchanges %d@."
          (Atomic.get st.Resource_exchange.swaps)
          (Atomic.get st.Resource_exchange.fails);
        code
    | `Es ->
        let st = Es_compose.fresh_stats () in
        let code =
          finish (explore (Es_compose.make ~pushers:2 ~poppers:2 ~ops:1 st))
        in
        Format.printf "ops via base stack %d, eliminated pairs %d@."
          (Atomic.get st.Es_compose.via_base)
          (Atomic.get st.Es_compose.eliminated);
        code
    | `Mp_stack ->
        let st = Mp_stack.fresh_stats () in
        let code = finish (explore (Mp_stack.make Treiber.instantiate st)) in
        Format.printf "right pop: got %d, empty %d@."
          (Atomic.get st.Mp_stack.right_got)
          (Atomic.get st.Mp_stack.right_empty);
        code
    | `Strong_fifo ->
        let st = Strong_fifo.fresh_stats () in
        let code = finish (explore (Strong_fifo.make factory st)) in
        let broke = Atomic.make 0 in
        let rc =
          explore ~execs:(budget / 2) (Strong_fifo.make_control factory broke)
        in
        Format.printf
          "bare control: lhb non-total in %d/%d executions (the lock is what \
           upgrades the guarantee)@."
          (Atomic.get broke) rc.Explore.executions;
        code
    | `Ws ->
        let st = Ws_client.fresh_stats () in
        let code =
          finish (explore (Ws_client.make ~tasks:2 ~thieves:1 ~steals:1 st))
        in
        Format.printf "%a@." Ws_client.pp_stats st;
        code
    | `Ws_weak ->
        let st = Ws_client.fresh_stats () in
        let r =
          explore ~random:true
            (Ws_client.make ~weak_fences:true ~tasks:2 ~thieves:1 ~steals:2 st)
        in
        ignore (finish r);
        Format.printf
          "(violations above are the POINT: the double-take the SC fences \
           prevent)@.";
        0
  in
  let doc = "Model-check one of the paper's client verifications." in
  Cmd.v (Cmd.info "client" ~doc) Term.(const run $ which $ queue_arg $ explorer)

(* -- check --------------------------------------------------------------------- *)

let check_cmd =
  let threads =
    Arg.(value & opt (int_conv ~what:"thread count" 1) 2
         & info [ "threads"; "t" ] ~docv:"N"
             ~doc:"Producer and consumer threads (each).")
  in
  let ops =
    Arg.(value & opt (int_conv ~what:"operation count" 1) 1
         & info [ "ops"; "o" ] ~docv:"N" ~doc:"Operations per thread.")
  in
  let run (e : Libspec.entry) style threads ops ex =
    unless_sampling_conflict ex @@ fun () ->
    match e.Libspec.impl with
    | Specreg.Queue f ->
        finish
          (ex.explore
             (Harness.queue_workload ~style f ~enqers:threads ~deqers:threads
                ~ops ()))
    | Specreg.Stack f ->
        finish
          (ex.explore
             (Harness.stack_workload ~style f ~pushers:threads
                ~poppers:threads ~ops ()))
    | _ ->
        Format.eprintf
          "%s has no generic workload factory — run its registered clients \
           via compass analyze/fuzz@."
          e.Libspec.key;
        2
  in
  let doc =
    "Explore a workload on an implementation (resolved through the spec \
     registry with $(b,--struct)) and check a spec style on every \
     execution."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ Arg.required structure $ style_arg $ threads $ ops $ explorer)

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

(* -- sim ------------------------------------------------------------------------ *)

(* The line a [sim] witness prints to reproduce itself.  The client id is
   shell-quoted, since [|] separates its threads, and an empty script is
   left out: it is [replay]'s default, the first path. *)
let replay_hint (e : Libspec.entry) ~depth (w : Sim.witness) =
  Format.printf "replay it: compass replay --struct %s --sim-client %s \
                 --mgc-depth %d%s@."
    e.Libspec.key (Filename.quote w.Sim.w_client) depth
    (if Decision.choices w.Sim.w_trace = [||] then ""
     else Format.asprintf " --script %a" pp_script w.Sim.w_trace)

(* A [--client] or [--sim-client] id the depth-[depth] family lacks. *)
let unknown_client id ~depth =
  Format.eprintf
    "client %s is not in the depth-%d most-general-client family@." id depth

let sim_cmd =
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
  let run entries client depth execs jobs reduce until strict json =
    match client with
    | Some id when Mgc.find ~depth id = None ->
        unknown_client id ~depth;
        2
    | _ ->
        let options =
          {
            Sim.default_options with
            mgc_depth = depth;
            max_execs = execs;
            jobs;
            reduce;
            until_violation = until;
            only_client = client;
          }
        in
        let code = ref 0 in
        let reports =
          List.filter_map
            (fun (e : Libspec.entry) ->
              if not e.Libspec.refinable then begin
                not_refinable e;
                code := 2;
                None
              end
              else begin
                let r = Sim.run ~options e in
                Format.printf "%a@." Sim.pp r;
                Option.iter (replay_hint e ~depth) r.Sim.witness;
                code :=
                  max !code
                    (verdict_code ~strict e ~complete:r.Sim.complete r.Sim.ok);
                if strict && r.Sim.ok = e.Libspec.expect_violation then
                  Format.printf
                    "EXPECTATION MISMATCH: %s %s but the registry expects %s@."
                    e.Libspec.key
                    (if r.Sim.ok then "simulates" else "breaks")
                    (if e.Libspec.expect_violation then "a violation"
                     else "success")
                else if strict && r.Sim.ok && not r.Sim.complete then
                  Format.printf
                    "INCOMPLETE: %s found no violation but the search did not \
                     finish; --strict needs a complete one@."
                    e.Libspec.key;
                Some r
              end)
            entries
        in
        Option.iter
          (fun file ->
            let json =
              match reports with
              | [ r ] -> Sim.to_json r
              | rs ->
                  J.Obj [ ("structures", J.List (List.map Sim.to_json rs)) ]
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
  (* Like the analyzers, simulation defaults to source-DPOR.  dpor keeps
     the verdict (it only reads event graphs, which it preserves per
     Mazurkiewicz trace), so it is pure speedup; dpor-rf does not, as it
     can miss a class and the violation in it (see test_dpor.ml). *)
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      const run
      $ structures ~all_doc:"Check every refinable registered structure."
          ~keep:(fun e -> e.Libspec.refinable)
      $ client_arg $ mgc_depth_arg $ execs 50_000 $ jobs
      $ reduce Machine.RDpor $ until_arg $ strict_arg $ json_arg)

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
  Cmd.v (Cmd.info "matrix" ~doc)
    Term.(const run $ execs 100_000 $ jobs $ reduce Machine.RNone)

(* -- dot ------------------------------------------------------------------------ *)

let dot_samples = 1_000

let dot_cmd =
  let which =
    let doc = "Structure to sample: $(b,ms), $(b,hw), $(b,treiber), $(b,es), $(b,exchanger), $(b,chaselev)." in
    Arg.(
      required
      & pos 0 (some (enum [ ("ms", `Ms); ("hw", `Hw); ("treiber", `Tr); ("es", `Es); ("exchanger", `Ex); ("chaselev", `Cl) ])) None
      & info [] ~docv:"IMPL" ~doc)
  in
  let run which seed =
    (* Sample until one contended execution finishes and dump its
       graph(s): the judge marks the first finished execution as the
       sample's target, which stops it. *)
    let sample seed (build : Machine.t -> Value.t Prog.t list * Graph.t list) =
      let found = ref [] in
      let scenario =
        {
          Explore.name = "dot";
          build =
            (fun m ->
              let threads, graphs = build m in
              Machine.spawn m threads;
              function
              | Machine.Finished _ ->
                  found := graphs;
                  Explore.Violation "finished"
              | _ -> Explore.Pass);
        }
      in
      let uniform =
        {
          Explore.worker = ignore;
          oracle = (fun () seed -> Oracle.random ~seed);
          observe = (fun () _ _ _ _ -> ());
        }
      in
      ignore
        (Explore.sample ~until_violation:true ~execs:dot_samples ~seed uniform
           (fun () -> scenario));
      !found
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
    if graphs = [] then begin
      Format.eprintf "no execution finished in %d samples@." dot_samples;
      1
    end
    else begin
      List.iter (fun g -> print_string (Graph.to_dot g)) graphs;
      0
    end
  in
  let doc = "Sample one execution and print its event graph(s) as DOT." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ which $ seed)

(* -- axioms ------------------------------------------------------------------------ *)

let axioms_cmd =
  let run execs jobs reduce =
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
        Explore.dfs ~jobs ~max_execs:execs ~reduce ~config (with_rc11 sc)
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
    Term.(const run $ execs 100_000 $ jobs $ reduce Machine.RNone)

(* -- analyze ----------------------------------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Unlike the exploring subcommands, analysis defaults to source-DPOR:
   the audit needs *complete* explorations to call a mode over-strong,
   and the reduction keeps them small without losing violations. *)

let analyze_races_cmd =
  let run (e : Libspec.entry) execs reduce strict json =
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
        let r = Explore.dfs ~max_execs:execs ~reduce ~config sc in
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
    else 0
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
      const run $ Arg.required structure $ execs 100_000
      $ reduce Machine.RDpor $ strict_arg $ json_arg)

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
  let run (e : Libspec.entry) execs jobs reduce site prio strict json =
    let options = { Audit.execs; jobs; reduce } in
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
      if strict && over_strong + unknown > 0 then 1 else 0
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
      const run $ Arg.required structure $ execs 100_000 $ jobs
      $ reduce Machine.RDpor $ site_arg $ prioritize_arg $ strict_arg
      $ json_arg)

let analyze_static_cmd =
  let run entries overrides strict json =
    let mismatched = ref [] in
    let reports =
      List.map
        (fun (e : Libspec.entry) ->
          let r =
            Static.analyze ~overrides ~subject:e.Libspec.key
              e.Libspec.scenarios
          in
          Format.printf "%a@." Static.pp_report r;
          (* With an explicit [--weaken] the registry expectation does not
             apply — strict then simply demands a clean report. *)
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
                 (if e.Libspec.expect_violation then "flagged" else "clean")
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
        Format.eprintf "expectation mismatch: %s@." (String.concat ", " keys);
        if strict then 1 else 0
  in
  let doc =
    "The static synchronization linter: evaluate a structure's registered \
     clients symbolically over the Prog DSL (no exploration), extract the \
     site/location access graph, and run the lint passes — publication \
     safety, acquire pairing, relaxed-CAS-success misuse, non-atomic race \
     candidates — plus a hypothetical-weakening pass splitting the \
     labeled sites into predicted-necessary and over-strong candidates.  \
     $(b,--weaken) lints under a hypothetical weakening.  $(b,--strict) \
     exits nonzero when a verdict contradicts the registry's expectation \
     (expect-violation structures must be flagged, the rest clean)."
  in
  Cmd.v (Cmd.info "static" ~doc)
    Term.(
      const run
      $ structures ~all_doc:"Lint every registered structure."
          ~keep:(fun _ -> true)
      $ weaken $ strict_arg $ json_arg)

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
    Arg.(value & opt script_conv [||] & info [ "script" ] ~docv:"N,N,..." ~doc)
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
  let run factory script overrides probe scenario_idx sim_client mgc_depth
      show_trace =
    let sc =
      match (probe, sim_client) with
      | None, None -> Some (Mp.make factory (Mp.fresh_stats ()))
      | None, Some _ ->
          Format.eprintf
            "--sim-client needs --struct, the structure whose generated \
             client to replay@.";
          None
      | Some e, Some _ when not e.Libspec.refinable ->
          not_refinable e;
          None
      | Some e, Some id -> (
          match Sim.client_scenario ~depth:mgc_depth e id with
          | None when Mgc.find ~depth:mgc_depth id = None ->
              unknown_client id ~depth:mgc_depth;
              None
          | None ->
              not_refinable e;
              None
          | sc -> sc)
      | Some e, None -> (
          match Specreg.scenario e scenario_idx with
          | None ->
              no_scenario e scenario_idx;
              None
          | Some mk -> Some (mk ()))
    in
    match sc with
    | None -> 2
    | Some sc ->
        (* An override naming a site that does not exist would silently
           replay unweakened; check the labels the static analyzer
           discovers for the chosen probe first. *)
        let valid_sites =
          if Override.is_empty overrides then []
          else
            match probe with
            | Some e -> List.map fst (Specreg.sites e)
            | None ->
                List.map fst
                  (Static.site_modes
                     [ (fun () -> Mp.make factory (Mp.fresh_stats ())) ])
        in
        let unknown_sites =
          List.rev_map fst overrides.Override.accesses
          @ List.rev_map fst overrides.Override.fences
          |> List.filter (fun site -> not (List.mem site valid_sites))
        in
        if unknown_sites <> [] then begin
          Format.eprintf "unknown --weaken site(s): %s@.valid sites: %s@."
            (String.concat ", " unknown_sites)
            (String.concat ", " valid_sites);
          2
        end
        else begin
          if not (Override.is_empty overrides) then
            Format.printf "weakened: %a@." Override.pp overrides;
          let config =
            { Machine.default_config with overrides; record_trace = true }
          in
          let r = Explore.replay ~config sc script in
          if r.Explore.r_clamped > 0 then
            Format.printf
              "note: %d out-of-range choice(s) clamped to the last \
               alternative@."
              r.Explore.r_clamped;
          Format.printf "outcome: %a@.verdict: %s@.@.%a@." Machine.pp_outcome
            r.Explore.r_outcome
            (match r.Explore.r_verdict with
            | Explore.Pass -> "pass"
            | Explore.Violation s -> "VIOLATION: " ^ s
            | Explore.Discard s -> "discard: " ^ s)
            Trace.pp (Machine.trace r.Explore.r_machine);
          if show_trace then
            Format.printf "@.decision trace:@.%a@." Decision.pp_trace
              r.Explore.r_trace;
          0
        end
  in
  let doc =
    "Replay one execution from a decision script with full tracing — \
     optionally under the same $(b,--weaken) mode overrides an audit \
     mutant ran with, so its counterexamples replay exactly (empty \
     script = first path).  Without $(b,--struct), the plain MP client \
     over $(b,--queue) runs; with it, the structure's registered client \
     scenario (the same ones the audit runs; see $(b,compass analyze))."
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run $ queue_arg $ script_arg $ weaken $ Arg.value structure
      $ scenario $ sim_client_arg $ mgc_depth_arg $ trace_arg)

(* -- fuzz ---------------------------------------------------------------------- *)

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
    Arg.(
      value
      & opt (int_conv ~what:"depth" 0) 3
      & info [ "pct-depth"; "d" ] ~docv:"D" ~doc)
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
      "Invert the exit code: succeed only if a violation is found (for \
       known-broken fixtures in CI)."
    in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  let run (e : Libspec.entry) scenario_idx mode depth execs seed jobs corpus
      shrink json expect =
    match Specreg.scenario e scenario_idx with
    | None ->
        no_scenario e scenario_idx;
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
        else 1
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
      const run $ Arg.required structure $ scenario $ mode_arg $ pct_depth
      $ execs 4000 $ seed $ jobs $ corpus_arg $ shrink_arg $ json_arg
      $ expect_violation)

(* -- shrink -------------------------------------------------------------------- *)

let shrink_cmd =
  let script_arg =
    let doc = "Violating decision script to shrink (comma-separated)." in
    Arg.(
      required
      & opt (some script_conv) None
      & info [ "script" ] ~docv:"N,N,..." ~doc)
  in
  let max_replays =
    let doc = "Replay budget for the shrinker." in
    Arg.(
      value
      & opt (int_conv ~what:"replay budget" 1) 20_000
      & info [ "max-replays" ] ~docv:"N" ~doc)
  in
  let run factory script overrides probe scenario_idx max_replays =
    let mk =
      match probe with
      | None -> Some (fun () -> Mp.make factory (Mp.fresh_stats ()))
      | Some e ->
          let mk = Specreg.scenario e scenario_idx in
          if mk = None then no_scenario e scenario_idx;
          mk
    in
    match mk with
    | None -> 2
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
               shrunk: %a@."
              message stats.Fz.Shrink.initial_len stats.Fz.Shrink.final_len
              stats.Fz.Shrink.replays
              (if stats.Fz.Shrink.clamped > 0 then
                 Printf.sprintf " (%d choices clamped)" stats.Fz.Shrink.clamped
               else "")
              pp_script small;
            0
        | Explore.Pass | Explore.Discard _ ->
            Format.eprintf
              "the script does not produce a violation — nothing to shrink@.";
            1)
  in
  let doc =
    "Delta-debug a violating decision script (e.g. from a fuzz or audit \
     report) down to a 1-minimal script producing the same violation, \
     optionally under the same $(b,--weaken) overrides.  Without \
     $(b,--struct), the plain MP client over $(b,--queue) runs."
  in
  Cmd.v (Cmd.info "shrink" ~doc)
    Term.(
      const run $ queue_arg $ script_arg $ weaken $ Arg.value structure
      $ scenario $ max_replays)

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
      { Audit.execs = 12_000; jobs; reduce = Machine.RDpor }
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
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ quick $ jobs $ reduce Machine.RNone)

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
            litmus_cmd; client_cmd; specs_cmd; check_cmd; sim_cmd; matrix_cmd;
            dot_cmd; axioms_cmd; analyze_cmd; replay_cmd; fuzz_cmd; shrink_cmd;
            report_cmd;
          ]))
