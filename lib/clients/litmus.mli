open Compass_rmc
open Compass_machine

(** The classic litmus tests, validating the ORC11 substrate itself:
    which weak behaviours the model must exhibit and which it must
    forbid. *)

type t = {
  scenario : Explore.scenario;
  observed : int Atomic.t;
      (** executions exhibiting the distinguished outcome; atomic, as the
          judge runs on every worker domain of a [--jobs] search *)
  expect : [ `Observable | `Forbidden ];
  descr : string;
}

val sb : ?wmode:Mode.access -> ?rmode:Mode.access -> unit -> t
(** store buffering: both-read-zero, observable *)

val sb_sc_fences : unit -> t
(** SB with SC fences: forbidden (validates the global SC view) *)

val mp : ?wmode:Mode.access -> ?rmode:Mode.access -> unit -> t
(** message passing: stale read forbidden under rel/acq, observable
    otherwise *)

val mp_fences : unit -> t
(** MP through relaxed accesses + rel/acq fences: forbidden *)

val corr : unit -> t
(** coherence: anti-mo read pairs forbidden *)

val coww : unit -> t
(** coherence: one thread's writes take mo in program order *)

val cowr : unit -> t
(** coherence: a thread cannot read below its own write *)

val lb : unit -> t
(** load buffering: forbidden — ORC11's defining [po ∪ rf] acyclicity *)

val iriw : unit -> t
(** independent reads of independent writes: readers may disagree under
    rel/acq *)

val two_two_w : unit -> t
(** 2+2W: needs mo-middle insertion; observable only under the [`Gap]
    timestamp policy *)

val wrc : unit -> t
(** write-to-read causality: rel/acq chains are transitive *)

val faa_atomic : ?threads:int -> unit -> t
(** RMW atomicity: no lost increments *)

val racy_na : unit -> t
(** deliberately racy non-atomic MP — the machine faults on it; the
    positive control for the race detectors (not part of {!all}) *)

val all : unit -> t list
(** the standard battery (excludes {!two_two_w}, which needs its own
    machine config) *)

val verdict :
  ?max_execs:int ->
  ?config:Machine.config ->
  ?jobs:int ->
  ?reduce:Machine.reduction ->
  t ->
  bool * Explore.report * int
(** run exhaustively; [true] iff the expectation holds (and no
    violations); also returns the report and the observation count.
    [jobs] domains share the DFS ({!Explore.dfs});
    [reduce] selects a partial-order reduction (source-DPOR, plain or
    reads-from–aware) — the verdict is preserved, but the observation count
    then only covers the representative interleavings actually
    explored. *)
