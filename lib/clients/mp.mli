open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct

(** The Message-Passing client of queues — the paper's Figure 1 and its
    verification, Figure 3.

    Checked on every execution: the flag-synchronised right thread's
    dequeue returns 41 or 42, never empty; the deqPerm(2) counting
    protocol ([|G.so| <= 2]); queue consistency.  The exclusion analysis
    additionally scores, per execution, whether a hypothetical empty
    dequeue would be ruled out under LAThb (always — via the transferred
    logical view [{e1, e2}]) versus Cosmo-style LATso (never — the thread
    has no so-chain to the enqueues), reproducing Section 1.1's point. *)

(** Tallies over the judged executions.  Atomic, because the judge
    runs on every worker domain of a [--jobs] search. *)
type stats = {
  executions : int Atomic.t;
  right_got_41 : int Atomic.t;
  right_got_42 : int Atomic.t;
  right_empty : int Atomic.t;  (** must stay 0 with a rel/acq flag *)
  middle_empty : int Atomic.t;  (** fine: the middle thread may see empty *)
  excluded_hb : int Atomic.t;
  excluded_so : int Atomic.t;
}

val fresh_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

val excluded : m0_size:int -> other_deqs:int -> bool
(** the counting core of Figure 3's argument: the empty outcome is
    excluded iff more known enqueues than possible concurrent dequeues *)

val make :
  ?flag_write:Mode.access ->
  ?flag_read:Mode.access ->
  ?style:Libspec.style ->
  Iface.queue_factory ->
  stats ->
  Explore.scenario

val make_weak : Iface.queue_factory -> stats -> Explore.scenario
(** the ablation: a relaxed flag transfers no views; the empty outcome
    becomes observable (counted as [right_empty], not a violation — the
    queue itself stays consistent) *)
