(** Native Chase-Lev work-stealing deque — the host-side analogue of the
    modelled deque in lib/dstruct/chaselev.ml.  {!Explore.dfs} keeps one
    per worker: its pending exploration tasks (plain decision prefixes
    or DPOR tasks), popped depth-first by the owner and stolen
    shallowest-first by idle workers — at [jobs = 1] the lone deque is
    simply the DFS stack.

    One domain owns each deque and is the only one allowed to {!push} and
    {!pop} (bottom, LIFO); any other domain may {!steal} (top, FIFO).
    All shared state is sequentially-consistent [Atomic]s, so the classic
    take/steal race on the last element is resolved exactly as in the
    paper — by the CAS on [top]. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** owner only: push at the bottom *)

val pop : 'a t -> 'a option
(** owner only: pop at the bottom (the most recently pushed task);
    [None] when empty *)

val steal : 'a t -> 'a option
(** any domain: steal from the top (the oldest task).  [None] means
    empty {e or} a lost race with a concurrent [steal]/[pop] — callers
    treat both as "nothing obtained" and rescan. *)
