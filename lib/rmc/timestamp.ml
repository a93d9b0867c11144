(* Timestamps index the modification order of each location.

   Each location's history starts with an initialisation write at [init].
   Under the default [Append] policy new writes take [succ (max_ts)]; under
   the [Gap] policy (used to exhibit weak behaviours that need mo-middle
   insertion, e.g. 2+2W) writes are spaced [stride] apart so that later
   writes can pick unused slots between existing ones. *)

type t = int

let init : t = 0
let compare = Int.compare
let equal = Int.equal
let leq (a : t) (b : t) = a <= b
let max = Stdlib.max

(* Spacing between appended timestamps under the [Gap] policy; a midpoint
   between two writes [a < b] exists whenever [b - a >= 2]. *)
let stride = 1 lsl 16

let midpoint a b = if b - a >= 2 then Some (a + ((b - a) / 2)) else None
let pp ppf (t : t) = Format.fprintf ppf "t%d" t
