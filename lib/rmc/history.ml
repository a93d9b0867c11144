(* Per-location write histories.

   The history of a location is the set of its write messages, keyed by
   timestamp — the modification order.  This is the [h] of the paper's
   atomic points-to assertion (Section 2.3): a set of write events that may
   still be visible to some threads.  Messages sit behind refs so the
   machine can patch a commit write's logical view in the same atomic step
   that creates the event.

   A history is a pair of growable parallel arrays, timestamps ascending.
   Lookup is a binary search; enumeration of readable messages is an index
   range, which gives the machine its allocation-free
   [readable_arity]/[readable_nth] hot path.

   Rollback state is the live length alone.  Under the [`Append] policy
   every write lands past the end, so a past state is a prefix and restore
   is a truncation.  A [`Gap] midpoint lands *between* existing writes and
   shifts the suffix up one slot; such an insertion also records
   [(length before, slot)] on an undo log, and [truncate] takes those
   insertions back out, newest first, before it cuts the length.  Under
   [`Append] the log stays empty. *)

type t = {
  mutable ts : int array;  (* sorted strictly ascending; [len] live *)
  mutable msgs : Msg.t ref array;
  mutable len : int;
  mutable undo : (int * int) list;
      (* mid-history insertions, newest first: (length before, slot) *)
}

let create ~loc ~init_value () =
  let m0 = ref (Msg.init ~loc ~value:init_value) in
  let cap = 8 in
  let ts = Array.make cap 0 and msgs = Array.make cap m0 in
  ts.(0) <- Timestamp.init;
  { ts; msgs; len = 1; undo = [] }

(* First index in [0, len) whose timestamp is >= [k] (so [len] when all
   are below): the only search a history ever needs. *)
let lower_bound h k =
  let lo = ref 0 and hi = ref h.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get h.ts mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let max_ts h = h.ts.(h.len - 1)
let latest h = h.msgs.(h.len - 1)
let length h = h.len

let add h (msg : Msg.t) =
  let n = h.len in
  let slot = if msg.ts > h.ts.(n - 1) then n else lower_bound h msg.ts in
  assert (slot = n || h.ts.(slot) <> msg.ts);
  let cap = Array.length h.ts in
  if n = cap then begin
    let ncap = cap * 2 in
    let ts = Array.make ncap 0 and msgs = Array.make ncap h.msgs.(0) in
    Array.blit h.ts 0 ts 0 n;
    Array.blit h.msgs 0 msgs 0 n;
    h.ts <- ts;
    h.msgs <- msgs
  end;
  if slot < n then begin
    Array.blit h.ts slot h.ts (slot + 1) (n - slot);
    Array.blit h.msgs slot h.msgs (slot + 1) (n - slot);
    h.undo <- (n, slot) :: h.undo
  end;
  let r = ref msg in
  h.ts.(slot) <- msg.ts;
  h.msgs.(slot) <- r;
  h.len <- n + 1;
  r

(* Roll back to the state the history had at length [n], a state along
   the current execution.  A logged insertion made at length >= [n] is not
   part of that state; taking those out newest first finds each one still
   at its slot, since every later insertion below it was taken out before
   it and appends only ever land above it.  What remains past [n] is then
   appends alone, which the truncation drops.

   Message refs are shared with earlier states, which is sound because a
   ref is only mutated (commit-view patching) during the machine step that
   inserts it: lengths are captured at step boundaries, after which every
   reachable message is immutable. *)
let rec truncate h n =
  match h.undo with
  | (before, slot) :: rest when before >= n ->
      let tail = h.len - slot - 1 in
      Array.blit h.ts (slot + 1) h.ts slot tail;
      Array.blit h.msgs (slot + 1) h.msgs slot tail;
      h.len <- h.len - 1;
      h.undo <- rest;
      truncate h n
  | _ -> h.len <- n

(* -- readable messages -------------------------------------------------------

   All messages readable by a thread whose view of this location is [from]:
   coherence forbids reading below the view, nothing forbids reading above.
   Ascending timestamp order throughout.

   The readable set is the index range [lower_bound .. len), so counting
   and indexing allocate nothing.  The [sat_]* variants fold a predicate in
   (RMW and await steps) without materialising the filtered list. *)

let readable_arity h ~from = h.len - lower_bound h from
let readable_nth h ~from n = h.msgs.(lower_bound h from + n)

let sat_arity h ~from ~sat =
  let n = ref 0 in
  for i = lower_bound h from to h.len - 1 do
    if sat (Array.unsafe_get h.msgs i) then incr n
  done;
  !n

let sat_exists h ~from ~sat =
  let rec go i = i < h.len && (sat (Array.unsafe_get h.msgs i) || go (i + 1)) in
  go (lower_bound h from)

let sat_nth h ~from ~sat n =
  let k = ref n and r = ref None and i = ref (lower_bound h from) in
  while !r = None do
    let msg = h.msgs.(!i) in
    if sat msg then
      if !k = 0 then r := Some msg else decr k;
    incr i
  done;
  Option.get !r

let to_list h = Array.to_list (Array.sub h.msgs 0 h.len)

(* Next unused timestamp strictly above [above], per the allocation policy:
   [`Append] always goes past the maximum; [`Gap] may also land strictly
   between two adjacent writes above [above] — a slot that is free by
   construction.  Returns candidates (ascending). *)
let fresh_ts h ~policy ~above =
  let top = Timestamp.max (max_ts h) above in
  match policy with
  | `Append -> [ top + 1 ]
  | `Gap ->
      let rec mids i =
        if i + 1 >= h.len then [ top + Timestamp.stride ]
        else
          let lo = Timestamp.max h.ts.(i) above in
          match Timestamp.midpoint lo h.ts.(i + 1) with
          | Some m -> m :: mids (i + 1)
          | None -> mids (i + 1)
      in
      mids 0

let pp ppf h =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       (fun ppf m -> Msg.pp ppf !m))
    (to_list h)
