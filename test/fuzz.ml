(* Input mutators for the loader fuzz properties. Every loader of
   untrusted bytes (guest images, assembly text, snapshots) is fed random
   strings and truncated or bit-flipped variants of valid inputs, and may
   only answer with its documented error. *)

let flip s flips =
  let b = Bytes.of_string s in
  if Bytes.length b > 0 then
    List.iter
      (fun (pos, bit) ->
        let i = pos mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
      flips;
  Bytes.to_string b

(* [char] draws the bytes of the random strings. *)
let mutants ?(char = QCheck.Gen.char) seeds =
  let gen = char in
  let open QCheck.Gen in
  let seed = oneofl seeds in
  let arb =
    frequency
      [ (1, string_size ~gen (int_range 0 256));
        (1, map2 (fun s n -> String.sub s 0 (n mod (String.length s + 1))) seed nat);
        (3, map2 flip seed (list_size (int_range 1 8) (pair nat (int_range 0 7)))) ]
  in
  QCheck.make ~print:String.escaped arb
