(** Decision oracles.

    All nondeterminism in an execution — which thread steps, which message
    a load reads, which timestamp a write takes — is a sequence of bounded
    integer choices.  An oracle answers them and logs each as a typed
    {!Decision.t}, which is exactly what the stateless DFS explorer needs
    to enumerate the decision tree and what the replay tooling renders. *)

type kind =
  | Sched of int array
      (** a scheduling decision; element [i] is the tid that choice [i]
          would run ([Array.length tids = arity]) *)
  | Data  (** load / timestamp / await / RMW-candidate choice *)

type t

val choose : ?kind:kind -> ?dkind:Decision.kind -> ?site:string -> t -> arity:int -> int
(** pick a choice in [0 .. arity-1] and log it; [kind] (default [Data])
    tells schedule-directed oracles what the choice means — enumeration
    and replay oracles ignore it.  [dkind] (default {!Decision.Opaque})
    and [site] type the logged decision for trace consumers; they never
    influence the pick. *)

val annotate_sched : t -> int -> unit
(** retype the newest logged decision as [Sched tid] — called by the
    machine right after a scheduling pick resolves to a thread *)

val annotate_rf : t -> ts:Compass_rmc.Timestamp.t -> wtid:int -> unit
(** attach reads-from provenance to the newest logged decision — called
    by the machine right after a read-like pick resolves to a message *)

val decisions : t -> int list
(** choices taken so far, earliest first *)

val arities : t -> int list

val trace : t -> Decision.trace
(** the typed decision trace, earliest first, in one traversal — the
    log entries themselves, so post-hoc annotation stays visible *)

val fresh_latest : unit -> t
(** deterministic: always the last alternative (for loads: the mo-maximal
    message) — the right default for solo/setup execution.  A fresh value
    per call: oracles are mutable and must never be shared between
    executions (or domains). *)

val random : seed:int -> t

val make : ?sched_aware:bool -> (pos:int -> arity:int -> kind:kind -> int) -> t
(** an oracle answering with a custom pick function — the hook the
    schedule-fuzzing subsystem's PCT and prefix-replay oracles plug into;
    the pick must return a value in [0 .. arity-1].  [sched_aware]
    (default true) declares whether the pick inspects [Sched] kinds; pass
    [false] for picks that ignore [kind] so the machine can skip building
    the runnable-tid array at every scheduling choice *)

val script : Decision.trace -> t
(** replay the given trace's choices, falling back to choice 0 past the
    end; the DFS explorer's workhorse.  Strict — internally-generated
    scripts are valid by construction, so a mismatch means divergence.
    @raise Invalid_argument if a scripted choice exceeds the arity *)

val script_clamped : Decision.trace -> t
(** tolerant replay: out-of-range choices clamp to the last alternative
    and positions past the end take choice 0 — never raises; each clamp
    is counted in {!clamp_count}.  The logged decision vector of a
    clamped run is a valid script for {!script}.  The uniform semantics
    for every script that crosses a tool boundary: CLI replay, corpus
    entries, shrink candidates, witness JSON. *)

val clamp_count : t -> int
(** out-of-range choices clamped so far (0 for non-clamping oracles) *)

val position : t -> int
(** number of choices taken so far (the current decision depth) *)

val sched_aware : t -> bool
(** whether this oracle's pick inspects {!kind} — enumeration and replay
    oracles don't, letting the machine pass [Data] for scheduling choices
    without materialising the tid array *)

val raw_log : t -> Decision.t list
(** the decision log, newest first; a persistent value, so capturing it
    in a checkpoint is O(1) *)

val resume_script : pos:int -> log:Decision.t list -> Decision.trace -> t
(** resume a scripted replay from decision depth [pos], seeding the log
    with the {!raw_log} captured at a machine checkpoint; the script must
    agree with [log] on the first [pos] positions *)

val resume_make :
  ?sched_aware:bool ->
  pos:int ->
  log:Decision.t list ->
  (pos:int -> arity:int -> kind:kind -> int) ->
  t
(** {!make} resuming from decision depth [pos] with a checkpoint-captured
    {!raw_log} — how the DPOR driver's custom oracle rides the
    incremental engine's restores *)
