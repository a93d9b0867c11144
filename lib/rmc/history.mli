(** Per-location write histories: the set of a location's write messages,
    keyed by timestamp — its modification order.  This is the [h] of the
    paper's atomic points-to assertion (Section 2.3).

    A history is a pair of growable parallel arrays in ascending timestamp
    order, with allocation-free readable-message enumeration — the
    exploration hot path.  Its whole rollback state is its {!length}:
    writes past the end are undone by truncation, and [`Gap] midpoint
    writes, which land between existing writes, also go on an undo log
    that {!truncate} replays.

    Restores must only go back along the current execution: the length
    passed to {!truncate} must have been read by {!length} on a state the
    current one was reached from, never on a sibling branch that was
    since rolled back.  The incremental explorer only ever restores
    checkpoints on the path that led to the current state, which meets
    this. *)

type t

val create : loc:Loc.t -> init_value:Value.t -> unit -> t

val max_ts : t -> Timestamp.t
val latest : t -> Msg.t ref

val add : t -> Msg.t -> Msg.t ref
(** insert a message at a fresh timestamp, in timestamp order, and return
    the ref it is stored behind.  A timestamp below {!max_ts} (a [`Gap]
    midpoint) is logged so that {!truncate} can take it back out. *)

val length : t -> int
(** the number of messages — the history's entire rollback state, so a
    store of histories checkpoints as a plain int array *)

val truncate : t -> int -> unit
(** [truncate h n] rolls [h] back to the state in which {!length} was
    [n]: logged midpoint insertions made at length [>= n] are removed
    newest first, then the length is cut to [n].  Only valid for a state
    along the current execution (see the module comment).  Message refs
    are shared with the restored state — they are immutable after the
    machine step that inserts them. *)

val readable_arity : t -> from:Timestamp.t -> int
(** the number of messages a thread whose view of this location is [from]
    may read (coherence forbids reading below the view): a binary
    search *)

val readable_nth : t -> from:Timestamp.t -> int -> Msg.t ref
(** the [n]th of those messages in ascending timestamp order: an array
    index *)

val sat_arity : t -> from:Timestamp.t -> sat:(Msg.t ref -> bool) -> int
(** number of readable messages satisfying [sat], without materialising
    the filtered list (await / RMW read steps) *)

val sat_exists : t -> from:Timestamp.t -> sat:(Msg.t ref -> bool) -> bool
(** [sat_arity h ~from ~sat > 0], with early exit (await enabledness) *)

val sat_nth : t -> from:Timestamp.t -> sat:(Msg.t ref -> bool) -> int -> Msg.t ref
(** [n]th readable message satisfying [sat] (ascending timestamps);
    [n] must be below the corresponding {!sat_arity} *)

val to_list : t -> Msg.t ref list
(** all messages, ascending timestamps *)

val fresh_ts :
  t -> policy:[ `Append | `Gap ] -> above:Timestamp.t -> Timestamp.t list
(** candidate timestamps for a new write that must be mo-after [above]:
    [`Append] gives only past-the-end; [`Gap] also offers free midpoints
    (ascending) *)

val pp : Format.formatter -> t -> unit
