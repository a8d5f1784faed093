exception Fault of { addr : int; access : string }

let page_size = 4096
let page_of addr = addr lsr 12

type t = { data : Bytes.t; pages : int; gens : int array }

let create ~size =
  let pages = (size + page_size - 1) / page_size in
  { data = Bytes.make (pages * page_size) '\000'; pages; gens = Array.make pages 0 }

let size t = Bytes.length t.data

let copy t =
  { data = Bytes.copy t.data; pages = t.pages; gens = Array.copy t.gens }

let check t addr n access =
  if addr < 0 || addr + n > Bytes.length t.data then
    raise (Fault { addr; access })

let read_u8 t addr =
  check t addr 1 "read1";
  Char.code (Bytes.unsafe_get t.data addr)

let read_u32 t addr =
  check t addr 4 "read4";
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF

let touch t addr =
  let p = page_of addr in
  if p < t.pages then t.gens.(p) <- t.gens.(p) + 1

let write_u8 t addr v =
  check t addr 1 "write1";
  Bytes.unsafe_set t.data addr (Char.chr (v land 0xFF));
  touch t addr

let write_u32 t addr v =
  check t addr 4 "write4";
  Bytes.set_int32_le t.data addr (Int32.of_int v);
  touch t addr;
  (* A 4-byte store can straddle a page boundary. *)
  if page_of addr <> page_of (addr + 3) then touch t (addr + 3)

let load_string t ~at s =
  let n = String.length s in
  check t at n "load";
  Bytes.blit_string s 0 t.data at n;
  (* An empty string stores nothing, so it touches no page. *)
  if n > 0 then
    for p = page_of at to page_of (at + n - 1) do
      t.gens.(p) <- t.gens.(p) + 1
    done

let read_string t ~at ~len =
  check t at len "read";
  Bytes.sub_string t.data at len

let page_generation t ~page = if page < t.pages then t.gens.(page) else 0

(* FNV over the bytes in order. A page of generation 0 has not been
   written since [create]: [t] is abstract, and every writer
   ([write_u8], [write_u32], [load_string]) bumps the generation of each
   page it stores to. So such a page is all zero, and FNV over a zero
   byte is one multiply by the prime: the whole page folds in as one
   multiply by prime^4096. Only written pages pay the byte loop. *)
let fnv_prime = 0x100000001b3

let zero_page_factor =
  let f = ref 1 in
  for _ = 1 to page_size do
    f := (!f * fnv_prime) land max_int
  done;
  !f

let checksum t =
  let h = ref 0xcbf29ce4 in
  for p = 0 to t.pages - 1 do
    if t.gens.(p) = 0 then h := (!h * zero_page_factor) land max_int
    else
      for i = p * page_size to ((p + 1) * page_size) - 1 do
        h := ((!h lxor Char.code (Bytes.unsafe_get t.data i)) * fnv_prime)
             land max_int
      done
  done;
  !h
