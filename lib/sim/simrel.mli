open Compass_event
open Compass_spec

(** Per-execution forward simulation against the spec LTS.

    One explored execution leaves a library event graph: the operations'
    commit points in commit ([cix]) order, their physical and logical
    views, and the recorded insertion-to-removal [so] edges.  The
    execution {e simulates} the spec when some assignment of spec
    transitions to commit points is legal — a total order of the
    committed events that

    - respects [lhb] (derived from logical views, so the order is
      view-aware: synchronised operations cannot be reordered, unrelated
      ones can);
    - steps the spec LTS ({!Libspec.step}) legally from the empty
      abstract state (FIFO/LIFO removal order, empty removals only on the
      empty state);
    - reproduces the implementation's [so] edges exactly (the spec's
      predicted matching equals the recorded one).

    The search over candidate orders is {!Libspec.search}, the same
    commit-point search that judges LAThist; memoised on (used-set,
    abstract state).  Commit order itself need not be legal — the
    Herlihy-Wing queue commits enqueues at ticket reservation, before the
    slot write, and is simulated by assignments that linearise the
    enqueue later.

    On failure, the witness is the {e earliest breaking commit point}:
    the smallest commit-order prefix of the event set that no legal
    assignment covers, localising the exact commit where the abstraction
    relation breaks. *)

type break_ = {
  at : Event.data;  (** the breaking commit point *)
  index : int;  (** its position in commit order (0-based) *)
  prefix : Event.data list;
      (** the events committed before [at], in commit order — every
          assignment covering them dies at [at] *)
  states : int;
}

type result =
  | Simulates of { states : int }
      (** a legal commit-point assignment exists; [states] counts the
          candidate steps the search tried ({!Libspec.search}) *)
  | Breaks of break_
  | Gave_up of { states : int }  (** search budget exhausted *)

val check : Libspec.kind -> Graph.t -> result
(** check one execution's graph (budget 200k search states).  Only
    events in the kind's vocabulary participate; graphs with more than 62
    such events report [Gave_up]. *)
