(** Satisfaction tallies across executions: experiment E2's matrix cells.
    An implementation satisfies a style when every explored execution
    passes {!Libspec.check}. *)

type style = Libspec.style = So_abs | Hb_abs | Hb | Hist | Sc_abs
(** re-exported from {!Libspec}, where the styles and their checker live
    (the benchmark suite names [Styles.Hist]) *)

(** Satisfaction counts.  Atomic, so a judge may tally from every worker
    domain of a [--jobs] search. *)
type tally = { execs : int Atomic.t; failed : int Atomic.t }

val fresh_tally : unit -> tally
val tally_one : tally -> Check.violation list -> unit
val satisfied : tally -> bool
