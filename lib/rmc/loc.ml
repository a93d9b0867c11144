(* Memory locations.

   A location is an offset into an allocated block.  Blocks are identified by
   an integer [base] handed out by the machine's allocator; [off] selects a
   cell within the block.  Named blocks make traces and DOT dumps readable. *)

type t = { base : int; off : int }

let compare (a : t) (b : t) =
  match Int.compare a.base b.base with
  | 0 -> Int.compare a.off b.off
  | c -> c

let equal a b = compare a b = 0
let hash (l : t) = (l.base * 65599) + l.off
let make ~base ~off = { base; off }
let base l = l.base
let off l = l.off

(* Packed integer key, used by the flat view representation: lexicographic
   on (base, off) exactly like {!compare}, provided [0 <= off < 2^16] —
   which the allocator guarantees (block sizes are tiny).  Keys sort the
   same way locations do, so flat views enumerate entries in the same
   order {!Map}-based code did. *)
let off_bits = 16
let off_mask = (1 lsl off_bits) - 1
let key l = (l.base lsl off_bits) lor l.off
let of_key k = { base = k lsr off_bits; off = k land off_mask }

(* Pointer arithmetic within a block: [shift l i] is the cell [i] slots past
   [l].  Blocks are bounds-checked by the allocator, not here. *)
let shift l i = { l with off = l.off + i }

(* Human-readable names for allocated blocks, for trace output only.  The
   registry is global and append-only; it does not affect semantics.  It is
   the one piece of process-global mutable state the machine touches, so
   reads must be safe from every domain at once: the work-stealing
   exploration frontier runs one machine per worker on several domains,
   and each execution's setup re-registers the same (base, name) pairs.

   The table is therefore kept as an immutable map behind an [Atomic]:
   lookups are a single atomic load (no lock, no contention), and the
   write path first checks — again lock-free — whether the binding is
   already present, so steady-state re-registration by every domain costs
   one read and takes the mutex only for genuinely new names.  Writers
   serialise on the mutex to make read-modify-write of the map atomic. *)
module Imap = Map.Make (Int)

let names : string Imap.t Atomic.t = Atomic.make Imap.empty
let names_mutex = Mutex.create ()

let find_name base = Imap.find_opt base (Atomic.get names)

let register_name ~base ~name =
  match find_name base with
  | Some n when String.equal n name -> ()  (* interned already: lock-free *)
  | _ ->
      Mutex.lock names_mutex;
      Atomic.set names (Imap.add base name (Atomic.get names));
      Mutex.unlock names_mutex

let block_name = find_name

let pp ppf l =
  let name =
    match find_name l.base with
    | Some n -> n
    | None -> Printf.sprintf "b%d" l.base
  in
  if l.off = 0 then Format.fprintf ppf "%s" name
  else Format.fprintf ppf "%s[%d]" name l.off

let to_string l = Format.asprintf "%a" pp l

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
