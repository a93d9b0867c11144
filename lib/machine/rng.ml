(* Deterministic seed derivation (splitmix64 finalizer).

   The seeded sampler derives one independent seed per (base seed,
   execution index) pair, so a run spread over [--jobs n] workers
   executes exactly the same set of seeded executions as the sequential
   run — the workers just interleave them — and base seeds [s] and
   [s + 1] draw unrelated streams instead of shifted copies of one. *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* A well-mixed non-negative seed for stream [i] of base [seed]. *)
let derive seed i =
  let open Int64 in
  let z = add (of_int seed) (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  to_int (logand (mix64 z) 0x3FFFFFFFFFFFFFFFL)
