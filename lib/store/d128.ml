type t = { hi : int64; lo : int64 }

let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

let compare a b =
  match Int64.unsigned_compare a.hi b.hi with
  | 0 -> Int64.unsigned_compare a.lo b.lo
  | c -> c

let to_hex t = Printf.sprintf "%016Lx%016Lx" t.hi t.lo

let is_hex c =
  (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let of_hex s =
  if String.length s <> 32 || not (String.for_all is_hex s) then None
  else
    (* unsigned parse: Int64.of_string "0xffff..." wraps to the negative
       representation, which is exactly the bit pattern we want *)
    let part off = Int64.of_string ("0x" ^ String.sub s off 16) in
    Some { hi = part 0; lo = part 16 }

let pp ppf t = Format.pp_print_string ppf (to_hex t)

(* Two 64-bit FNV-1a lanes over the same byte stream, with distinct
   offset bases and the second lane's input bytes perturbed, so the
   lanes never collapse onto each other; a murmur3-style finalizer mixes
   the lanes into the published halves.  The builder's [int64] fields
   are boxed, so each [add_*] folds its bytes through two local refs,
   which the native compiler keeps unboxed, and stores the lanes once
   per call: ~3 multiplies and no allocation per byte. *)

type builder = { mutable a : int64; mutable b : int64 }

let fnv_prime = 0x100000001b3L

let builder () = { a = 0xcbf29ce484222325L; b = 0x6c62272e07bb0142L }

let[@inline] lane_a h c = Int64.mul (Int64.logxor h (Int64.of_int c)) fnv_prime

let[@inline] lane_b h c =
  Int64.mul (Int64.logxor h (Int64.of_int (c lxor 0xa5))) fnv_prime

(* Folds [byte 0 .. byte (n - 1)] into the lanes. *)
let[@inline] fold st n byte =
  let a = ref st.a and b = ref st.b in
  for i = 0 to n - 1 do
    let c = byte i in
    a := lane_a !a c;
    b := lane_b !b c
  done;
  st.a <- !a;
  st.b <- !b

let add_char st c = fold st 1 (fun _ -> Char.code c)

let add_bool st b = fold st 1 (fun _ -> Bool.to_int b)

(* the eight bytes of [v], least significant first *)
let add_int64 st v =
  fold st 8 (fun i -> Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)

let add_int st v = add_int64 st (Int64.of_int v)

(* An int's bytes exactly as [add_int] folds them: [asr] sign-extends
   as [Int64.of_int] does. *)
let add_int_array st arr =
  add_int st (Array.length arr);
  fold st (8 * Array.length arr) (fun i ->
      (Array.unsafe_get arr (i lsr 3) asr (8 * (i land 7))) land 0xff)

(* [len] raw bytes of [s] from [off].  Multi-MB blobs take this path,
   so the loop is spelled out: through [fold]'s closure it is ~1.7x
   slower. *)
let add_raw st s off len =
  let a = ref st.a and b = ref st.b in
  for i = off to off + len - 1 do
    let c = Char.code (String.unsafe_get s i) in
    a := lane_a !a c;
    b := lane_b !b c
  done;
  st.a <- !a;
  st.b <- !b

let add_string st s =
  add_int st (String.length s);
  add_raw st s 0 (String.length s)

let fmix64 k =
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xff51afd7ed558ccdL in
  let k = Int64.logxor k (Int64.shift_right_logical k 33) in
  let k = Int64.mul k 0xc4ceb9fe1a85ec53L in
  Int64.logxor k (Int64.shift_right_logical k 33)

let value st =
  { hi = fmix64 (Int64.add st.a (Int64.mul 0x9e3779b97f4a7c15L st.b));
    lo = fmix64 (Int64.add st.b (Int64.mul 0xc2b2ae3d27d4eb4fL st.a)) }

let of_strings parts =
  let st = builder () in
  add_int st (List.fold_left (fun n p -> n + String.length p) 0 parts);
  List.iter (fun p -> add_raw st p 0 (String.length p)) parts;
  value st

let of_substring s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "D128.of_substring";
  let st = builder () in
  add_int st len;
  add_raw st s off len;
  value st

let of_string s = of_substring s 0 (String.length s)
