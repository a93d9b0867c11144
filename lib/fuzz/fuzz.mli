open Compass_machine

(** The schedule-fuzzing driver: sample the decision tree under a search
    strategy instead of enumerating it.  The executions run on the seeded
    sampling loop {!Explore.sample} (per-execution seeds derive from the
    global execution index) with each worker stopping at its own first
    violation, so a run is byte-identical for a fixed seed and job
    count. *)

type mode =
  | Uniform  (** every choice seeded-uniform — the baseline *)
  | Pct  (** priority-based scheduling with change points ({!Pct}) *)
  | Guided  (** coverage-guided corpus mutation ({!Corpus}) *)

val mode_name : mode -> string

type options = {
  mode : mode;
  execs : int;
  seed : int;
  jobs : int;
  pct_depth : int;
      (** PCT priority change points, placed over the branching
          scheduling decisions of one pilot execution *)
  shrink : bool;  (** shrink the first violation before reporting *)
  corpus_in : Corpus.t option;  (** seed corpus ([--corpus FILE]) *)
  config : Machine.config;
}

val default_options : options
(** [Pct], 4000 executions, seed 1, depth 3, shrink on, accesses
    recorded (coverage needs the access log).  An outcome keeps the first
    4 violations; the first is shrunk within 20,000 replays. *)

type outcome = {
  scenario : string;
  mode : mode;
  seed : int;
  jobs : int;
  pct_depth : int;
  execs : int;  (** performed (workers stop early on violation) *)
  distinct : int;  (** distinct execution fingerprints *)
  pairs : int;  (** site pairs covered *)
  new_pair_execs : int;
  corpus_size : int;
  corpus : Corpus.t;
  clamped : int;
      (** out-of-range choices clamped while replaying corpus-mutant
          prefixes (0 outside guided mode) *)
  violations : Explore.failure list;
      (** oldest first; the first is shrunk when [options.shrink] *)
  first_violation_exec : int option;  (** global execution index *)
  shrink_stats : Shrink.stats option;
  seconds : float;
}

val run : ?options:options -> (unit -> Explore.scenario) -> outcome
(** fuzz one scenario on {!Explore.sample}; the thunk builds a fresh
    scenario per worker (so scenario-closure statistics never race).  In
    [Uniform] mode the executions are those {!Explore.random} samples
    from the same seed, up to each worker's first violation. *)

val prefix_oracle :
  ?clamps:int ref -> Random.State.t -> Decision.trace -> Oracle.t
(** clamped prefix replay with a seeded-random tail; each out-of-range
    prefix choice degrades to the last alternative and bumps [clamps]
    (exposed for tests) *)

val fingerprint : outcome -> string
(** canonical projection of everything deterministic (excludes wall-clock
    time) — equal across repeated runs with equal options *)

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_to_json : outcome -> Compass_util.Jsonout.t
