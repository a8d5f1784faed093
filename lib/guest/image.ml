type t = { origin : int; entry : int; image : string }

exception Bad_image of string

let magic = "VAT0"

let of_asm ~origin items =
  let asm = Asm.assemble ~origin items in
  let entry =
    match Hashtbl.find_opt asm.symbols "start" with
    | Some a -> a
    | None -> origin
  in
  { origin; entry; image = asm.image }

let u32_le v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))

let read_u32_le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let save path t =
  let oc = open_out_bin path in
  output_string oc magic;
  output_string oc (u32_le t.origin);
  output_string oc (u32_le t.entry);
  output_string oc t.image;
  close_out oc

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  if len < 12 || String.sub content 0 4 <> magic then
    raise (Bad_image (path ^ ": not a VAT0 image"));
  { origin = read_u32_le content 4;
    entry = read_u32_le content 8;
    image = String.sub content 12 (len - 12) }

let to_program ?(mem_size = 4 * 1024 * 1024) t =
  let mem = Mem.create ~size:mem_size in
  let image_end = t.origin + String.length t.image in
  if t.origin < 0 || image_end > Mem.size mem then
    raise
      (Bad_image
         (Printf.sprintf "image [0x%x, 0x%x) overruns the %d KiB guest memory"
            t.origin image_end (Mem.size mem / 1024)));
  Mem.load_string mem ~at:t.origin t.image;
  let brk0 = (image_end + Mem.page_size - 1) / Mem.page_size * Mem.page_size in
  let pages = Mem.size mem / Mem.page_size in
  { Program.mem;
    entry = t.entry;
    code_start = t.origin;
    code_size = String.length t.image;
    initial_esp = Mem.size mem - 16;
    brk0;
    page_table = Array.init pages (fun vpage -> vpage);
    symbols = Hashtbl.create 1 }

let disassemble t =
  let fetch addr =
    let i = addr - t.origin in
    if i < 0 || i >= String.length t.image then
      raise (Decode.Bad_instruction { addr; reason = "out of image" })
    else Char.code t.image.[i]
  in
  let stop = t.origin + String.length t.image in
  let rec go addr acc =
    if addr >= stop then List.rev acc
    else
      match Decode.decode fetch ~at:addr with
      | insn, len -> go (addr + len) ((addr, Insn.to_string insn) :: acc)
      | exception Decode.Bad_instruction _ ->
        go (addr + 1)
          ((addr, Printf.sprintf ".byte 0x%02x" (fetch addr)) :: acc)
  in
  go t.origin []
