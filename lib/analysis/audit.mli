open Compass_rmc
open Compass_machine
open Compass_util

(** The mode-necessity audit.

    For each labeled atomic access site (and labeled fence) exercised by
    a probe's client scenarios, generate strictly weaker mutants — as
    mode {!Override}s over the unmodified program — and re-run bounded
    exploration.  The verdict comes from the weakest mutant: a witnessed
    violation proves the strength [Necessary] (with a replayable
    counterexample script), a completed violation-free exploration
    proves it [Over_strong] for these clients, an exhausted budget
    leaves it [Unknown], and an already-relaxed site is [Minimal].

    All verdicts are relative to the probe's clients and bounds — the
    paper's per-client notion of sufficient synchronisation. *)

type site_kind = Access_site of Mode.access | Fence_site of Mode.fence

val kind_to_string : site_kind -> string

type weakening = To_mode of Mode.access | To_fence of Mode.fence | Drop

val weakening_to_string : weakening -> string

val weakenings : site_kind -> weakening list
(** strictly weaker alternatives, strongest first (never [Na]) *)

val override_of : string -> weakening -> Override.t

val discover : (unit -> Explore.scenario) list -> (string * site_kind) list
(** the labeled sites a small recorded exploration of each scenario (256
    executions) exercises, in first-seen order; a site's mode is the
    strongest recorded one (a failed CAS logs the read half of an RMW) *)

type outcome = Violated of Explore.failure | Safe | Exhausted

type mutant_result = {
  weakening : weakening;
  spec : string;  (** the [--weaken] spec that replays this mutant *)
  outcome : outcome;
  executions : int;
  scenario : string option;  (** the scenario that witnessed the violation *)
}

type options = {
  execs : int;  (** DFS budget per mutant per scenario *)
  jobs : int;
  reduce : Machine.reduction;
}

val default_options : options
(** 100,000 executions, one job, source-DPOR ([RDpor]: complete
    explorations stay small without losing a violation).  Witness scripts (baseline
    failures and [Violated] mutants) are always shrunk to 1-minimal form
    (within 20,000 replays) before reporting; verdicts are unchanged and
    witnesses still replay to the same violation. *)

type verdict =
  | Necessary of { witness : Explore.failure; weakening : weakening }
  | Over_strong of { weakening : weakening }
  | Unknown
  | Minimal

val verdict_to_string : verdict -> string

type site_result = {
  site : string;
  kind : site_kind;
  mutants : mutant_result list;  (** strongest first; weakest last *)
  verdict : verdict;
  weakest_safe : weakening option;
      (** the weakest mutant that explored completely with no violation *)
}

type report = {
  probe : string;
  scenario_names : string list;
  budget : int;
  baseline_ok : bool;
      (** the unmutated structure passed its probe — verdicts are
          meaningless otherwise, and no sites are audited *)
  baseline_failure : Explore.failure option;
  sites : site_result list;
  first_violation : (int * int) option;
      (** (mutants run, executions spent) in run order up to and
          including the first violating mutant — the cost-to-first-
          verdict metric audit prioritization is measured on *)
}

val counts : report -> int * int * int * int
(** (necessary, over-strong, unknown, minimal) *)

val run :
  ?options:options ->
  ?site_filter:(string -> bool) ->
  ?prioritize:string list ->
  ?verdict_first:(string -> bool) ->
  ?log:(string -> unit) ->
  probe:string ->
  (unit -> Explore.scenario) list ->
  report
(** [prioritize] lists sites to audit first, in the given order (e.g.
    {!Compass_static}'s predicted-necessary ranking); the rest keep
    discovery order.  [verdict_first] marks sites whose weakest (verdict)
    mutant runs before the intermediate ones; stored [mutants] stay in
    canonical strongest-first order regardless. *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> Jsonout.t
