(** Memory locations: offsets into allocated blocks.

    A location is a pair of a block identifier (handed out by
    {!Memory.alloc}) and an offset within the block.  Named blocks make
    traces and DOT dumps readable; names are metadata only and do not
    affect semantics. *)

type t = { base : int; off : int }

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val make : base:int -> off:int -> t
val base : t -> int
val off : t -> int

val key : t -> int
(** packed integer key, ordered like {!compare} (requires
    [0 <= off < 2^16], which the allocator guarantees) — the index type of
    the flat view representation *)

val of_key : int -> t
(** inverse of {!key} *)

val shift : t -> int -> t
(** [shift l i] is the cell [i] slots past [l] within the same block.
    Bounds are the allocator's concern, not checked here. *)

val register_name : base:int -> name:string -> unit
(** Associate a human-readable name with a block, for printing. *)

val block_name : int -> string option
(** the name registered for a block base: the very string {!pp} prints,
    which stays the same object until the block is renamed *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
