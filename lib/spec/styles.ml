(* Aggregated satisfaction counts across many executions (experiment E2).
   Atomic: a judge tallies from every worker domain of a [--jobs] search.
   The style type is {!Libspec.style}'s, re-exported. *)

type style = Libspec.style = So_abs | Hb_abs | Hb | Hist | Sc_abs
type tally = { execs : int Atomic.t; failed : int Atomic.t }

let fresh_tally () = { execs = Atomic.make 0; failed = Atomic.make 0 }

let tally_one t violations =
  Atomic.incr t.execs;
  if violations <> [] then Atomic.incr t.failed

let satisfied t = Atomic.get t.failed = 0
