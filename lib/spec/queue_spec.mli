open Compass_event

(** QueueConsistent — the paper's consistency conditions for queues
    (Figure 2, bottom right), checked on a concrete execution's graph.

    Quantifiers over "already committed" events are bounded by commit
    indices, so each condition is evaluated against the graph {e at the
    commit point} of the event under inspection, as the specs demand.
    The conditions every container states ([so ⊆ lhb], commit order) are
    {!Check.so_lhb} and {!Check.lhb_cix}; the commit-point abstract state
    (the LATabs styles) is {!Libspec.check}'s replay. *)

val check_matches : Graph.t -> Check.violation list
(** QUEUE-MATCHES: a dequeue returns its matched enqueue's value *)

val check_uniq : Graph.t -> Check.violation list
(** an element is dequeued at most once; every successful dequeue matches
    exactly one enqueue (the paper's footnote 5) *)

val check_fifo : Graph.t -> Check.violation list
(** QUEUE-FIFO in the paper's weak, RMC-compatible form: if [e' -lhb-> e]
    and [d] dequeues [e], then [e'] was already dequeued by some [d'] with
    [(d, d') ∉ lhb] *)

val check_empdeq : Graph.t -> Check.violation list
(** QUEUE-EMPDEQ: an empty dequeue is justified only if every enqueue that
    happens before it had already been dequeued — the condition that
    verifies the MP client (Figure 1) *)

val consistent : Graph.t -> Check.violation list
(** all of the above plus [queue-so-lhb], [queue-so-cix] and [lhb-cix]:
    the paper's QueueConsistent *)
