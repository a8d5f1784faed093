(** Textual G86 assembly.

    A small hand-rolled parser over an Intel-flavoured syntax, producing
    the same {!Asm.item} list the DSL builds:

    {v
    ; comments run to end of line (# works too)
    start:
        mov   esi, data
        mov   eax, 0
    loop:
        add   eax, [esi + ecx*4 + 8]
        dec   ecx
        jne   loop
        mov   ebx, eax
        mov   eax, 1
        int   0x80
        .align 4096
    data:
        .word 1, 2, 3
        .ascii "hello"
        .space 64
    v}

    Mnemonics cover the whole ISA (including [set<cc>], [cmov<cc>],
    [rep movsb]/[rep stosb] and [jmp *\[table + eax*4\]] indirect forms);
    directives are [.byte], [.word], [.ascii], [.asciz], [.space],
    [.align]. Symbols may appear wherever a 32-bit value may
    ([mov eax, data + 4]). *)

type error = { line : int; message : string }

val parse_string : string -> (Asm.item list, error list) result
(** Parse a whole source. Syntax errors are reported per line; a source
    free of them is then checked for what {!Asm.assemble} would reject —
    operand combinations the encoder forbids, duplicate labels and
    undefined symbols — again against the offending line. [Ok] items
    always assemble. *)

val parse_file : string -> (Asm.item list, error list) result

val pp_error : Format.formatter -> error -> unit
