(** The global simulated store: an allocator plus one {!History} per
    location, with race detection for non-atomic accesses.

    Memory is mutable: an explorer either creates a fresh store per
    execution or checkpoints one store with {!snapshot} and rolls it back
    with {!restore}.

    Locations get dense ids — blocks are numbered in allocation order and
    a block's cells occupy a contiguous id range — so location lookup is
    two array reads and a bounds check, and store snapshots are array
    sweeps. *)

type policy = [ `Append | `Gap ]
(** timestamp allocation for new writes: [`Append] always past the end of
    the history, [`Gap] also at free midpoints between existing writes *)

type t

type error =
  | Race of { loc : Loc.t; tid : int; kind : string }
  | Unallocated of Loc.t
  | Uninitialised of { loc : Loc.t; tid : int }

val pp_error : Format.formatter -> error -> unit

exception Error of error

val create : ?policy:policy -> unit -> t
(** an empty store; [policy] defaults to [`Append] *)

val alloc : t -> name:string -> size:int -> init_value:Value.t -> Loc.t
(** allocate a block of [size] cells, each with an initialisation write
    of [init_value]; returns the base location *)

val read_arity : t -> Loc.t -> from:Timestamp.t -> int
(** the number of messages an atomic load with view [from] of the
    location may read (coherence-filtered).
    @raise Error ([Unallocated]) for unknown locations, as do all
    per-location queries below *)

val read_nth : t -> Loc.t -> from:Timestamp.t -> int -> Msg.t ref
(** the [n]th of those messages, ascending timestamps *)

val sat_arity : t -> Loc.t -> from:Timestamp.t -> sat:(Msg.t ref -> bool) -> int
(** readable messages satisfying [sat], counted without materialising
    the filtered list (await / RMW steps) *)

val sat_exists : t -> Loc.t -> from:Timestamp.t -> sat:(Msg.t ref -> bool) -> bool
(** [sat_arity ... > 0] with early exit (await enabledness) *)

val sat_nth :
  t -> Loc.t -> from:Timestamp.t -> sat:(Msg.t ref -> bool) -> int -> Msg.t ref
(** [n]th readable message satisfying [sat] (ascending timestamps) *)

val append_ts : t -> Loc.t -> above:Timestamp.t -> Timestamp.t
(** the unique fresh timestamp under the [`Append] policy (one past the
    maximum of the history top and [above]), without building the
    choice list *)

val latest : t -> Loc.t -> Msg.t ref
val max_ts : t -> Loc.t -> Timestamp.t

val iter_latest : t -> (Loc.t -> Value.t -> unit) -> unit
(** apply [f] to every allocated cell and its mo-maximal value — how the
    static analyzer seeds its abstract store from a freshly built
    machine (post-setup, pre-run) *)

val na_check : t -> Loc.t -> tv:Tview.t -> tid:int -> kind:string -> Msg.t ref
(** non-atomic access check: the thread must have observed the mo-maximal
    write, else the access races (ORC11 undefined behaviour, detected).
    @raise Error ([Race]) otherwise *)

val na_read : t -> Loc.t -> tv:Tview.t -> tid:int -> Msg.t ref
(** {!na_check} plus rejection of uninitialised ([Poison]) values.
    @raise Error ([Race] or [Uninitialised]) *)

val write_ts_choices : t -> Loc.t -> above:Timestamp.t -> Timestamp.t list

val add_msg : t -> Msg.t -> Msg.t ref
(** insert a write message into its location's history; returns the ref
    it is stored behind (see {!History.add}) *)

type snapshot
(** allocator position plus the {!History.length} of every location:
    one unboxed int array *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** roll the store back to [snapshot]: existing histories are mutated in
    place (handles stay valid) and locations allocated after the snapshot
    are dropped by truncating the allocator.  [snapshot] must have been
    taken on a state the current one was reached from — restores only go
    back along the current execution (see {!History.truncate}). *)

val pp : Format.formatter -> t -> unit
