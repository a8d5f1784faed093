type t = {
  mem : Mem.t;
  entry : int;
  code_start : int;
  code_size : int;
  initial_esp : int;
  brk0 : int;
  page_table : int array;
  symbols : (string, int) Hashtbl.t;
}

let default_origin = 0x1000

let of_asm ?(mem_size = 4 * 1024 * 1024) ?(origin = default_origin) items =
  let asm = Asm.assemble ~origin items in
  let mem = Mem.create ~size:mem_size in
  Mem.load_string mem ~at:origin asm.image;
  let image_end = origin + String.length asm.image in
  let brk0 = (image_end + Mem.page_size - 1) / Mem.page_size * Mem.page_size in
  let entry =
    match Hashtbl.find_opt asm.symbols "start" with
    | Some a -> a
    | None -> origin
  in
  let pages = Mem.size mem / Mem.page_size in
  { mem;
    entry;
    code_start = origin;
    code_size = String.length asm.image;
    initial_esp = Mem.size mem - 16;
    brk0;
    page_table = Array.init pages (fun vpage -> vpage);
    symbols = asm.symbols }

let clone t =
  { t with mem = Mem.copy t.mem; page_table = Array.copy t.page_table }

let symbol t name =
  match Hashtbl.find_opt t.symbols name with
  | Some v -> v
  | None -> raise (Asm.Error (Printf.sprintf "unknown symbol %s" name))
