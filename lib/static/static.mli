open Compass_machine
open Compass_util

(** The static linter's front door: evaluate a scenario battery
    symbolically ({!Sym}), build the access-site graph ({!Sitegraph}),
    run the lint passes ({!Lints}) at declared modes, and classify each
    weakenable site by re-linting under its weakest hypothetical
    weakening.  [compass analyze static] and the audit prioritizer
    ([analyze modes --prioritize=static]) are thin wrappers over
    {!analyze}. *)

type stats = {
  scenarios : int;
  threads : int;
  paths : int;
  dropped : int;  (** paths cut by exceptions inside continuations *)
}

type report = {
  subject : string;
  scenario_names : string list;
  override_specs : string list;  (** base [--weaken] specs in effect *)
  graph : Sitegraph.t;
  findings : Lints.finding list;  (** at the base modes, deduplicated *)
  race_candidates : (string * string) list;
      (** sorted site pairs (na-race candidates plus partnered defects)
          — the superset the dynamic differential checks against *)
  predicted_necessary : string list;
      (** weakenable sites whose weakest hypothetical weakening
          introduces a new defect, strongest-signal lints first — the
          audit priority order *)
  over_strong : string list;
      (** weakenable sites whose weakest weakening stays defect-free *)
  stats : stats;
}

val analyze :
  ?overrides:Override.t ->
  subject:string ->
  (unit -> Explore.scenario) list ->
  report
(** Scenarios are built on fresh machines but never run; [overrides]
    are baked into the base modes (so a weakened structure lints as
    weakened). *)

val defects : report -> Lints.finding list
val clean : report -> bool
(** no [Defect]-severity findings at the base modes *)

val site_modes : (unit -> Explore.scenario) list -> (string * string) list
(** labeled site -> declared mode string, discovered statically — feeds
    [compass specs --json] and [replay --weaken] site validation *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> Jsonout.t
