(** G86 condition-code semantics.

    The five flags are packed into one integer word at their x86 bit
    positions (CF=0, PF=2, ZF=6, SF=7, OF=11). Each [after_*] function
    returns the full packed flags word produced by the corresponding
    instruction class; callers merge unaffected bits themselves where the
    ISA leaves flags unchanged (rotates, [Inc]/[Dec] preserving CF).

    All 32-bit values are represented as OCaml ints in [0, 2^32). *)

val cf_pos : int
val pf_pos : int
val zf_pos : int
val sf_pos : int
val of_pos : int
(** Bit positions in the packed word; each [*_bit] is [1 lsl *_pos]. *)

val cf_bit : int
val pf_bit : int
val zf_bit : int
val sf_bit : int
val of_bit : int
val all_mask : int
(** Union of the five flag bits. *)

val mask32 : int -> int
(** Truncate to 32 bits (unsigned representation). *)

val sign32 : int -> int
(** Reinterpret a [0, 2^32) value as a signed OCaml int. *)

val after_add : a:int -> b:int -> carry_in:int -> int * int
(** [(result, flags)] of [a + b + carry_in] — covers Add/Adc. *)

val after_sub : a:int -> b:int -> borrow_in:int -> int * int
(** [(result, flags)] of [a - b - borrow_in] — covers Sub/Sbb/Cmp/Neg. *)

val after_logic : int -> int
(** Flags of a logic result (And/Or/Xor/Test): CF=OF=0, SZP from result. *)

val after_inc : old_flags:int -> int -> int
(** Flags after Inc of the given result; CF preserved from [old_flags]. *)

val after_dec : old_flags:int -> int -> int

val after_shift : Insn.shift -> old_flags:int -> value:int -> count:int -> int * int
(** [(result, flags)] of shifting the 32-bit [value] by [count] (already
    masked to 0..31). A count of zero leaves value and flags unchanged.
    Rotates only modify CF and OF, as on x86. *)

val after_imul : wide:int -> res:int -> int
(** Truncated signed multiply: CF=OF set iff the full signed product [wide]
    does not fit in 32 bits (i.e. differs from the sign-extended truncated
    [res]). ZF/SF/PF are architecturally undefined on x86; G86 pins them to
    zero so the reference interpreter and translated code agree. *)

val after_mul_wide : hi:int -> int
(** Widening multiply: CF=OF set iff the high half is nonzero. *)

val eval_cond : Insn.cond -> flags:int -> bool
(** Whether a condition holds given a packed flags word. *)
