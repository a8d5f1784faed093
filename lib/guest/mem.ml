exception Fault of { addr : int; access : string }

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let page_of addr = addr lsr page_bits

(* Copy-on-write pages. [pages.(p)] may be shared with other memories;
   it is written in place only when [owner.(p) = id], and a store to a
   page this memory does not own first replaces it with a private copy.
   [copy] gives both sides fresh ids, so afterwards neither owns a page
   the other can see. Ids come from an atomic counter: two domains may
   copy one memory at once. Id 0 is never handed out, so the shared
   zero page is never written. *)
type t = {
  pages : Bytes.t array;
  owner : int array;
  gens : int array;
  mutable id : int;
}

let zero_page = Bytes.make page_size '\000'
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

let create ~size =
  let n = (size + page_size - 1) / page_size in
  { pages = Array.make n zero_page;
    owner = Array.make n 0;
    gens = Array.make n 0;
    id = fresh_id () }

let size t = Array.length t.pages * page_size

let copy t =
  let c =
    { pages = Array.copy t.pages;
      owner = Array.copy t.owner;
      gens = Array.copy t.gens;
      id = fresh_id () }
  in
  t.id <- fresh_id ();
  c

let check t addr n access =
  if addr < 0 || addr + n > size t then raise (Fault { addr; access })

(* Page [p], made private to [t]. *)
let writable t p =
  if t.owner.(p) = t.id then t.pages.(p)
  else begin
    let page = Bytes.copy t.pages.(p) in
    t.pages.(p) <- page;
    t.owner.(p) <- t.id;
    page
  end

let touch t p = t.gens.(p) <- t.gens.(p) + 1

let byte t addr =
  Char.code (Bytes.unsafe_get t.pages.(page_of addr) (addr land page_mask))

let set_byte t addr v =
  Bytes.unsafe_set (writable t (page_of addr)) (addr land page_mask)
    (Char.unsafe_chr (v land 0xFF))

(* Does a [n]-byte access at [addr] stay inside one page? *)
let within_page addr n = addr land page_mask <= page_size - n

let read_u8 t addr =
  check t addr 1 "read1";
  byte t addr

let read_u32 t addr =
  check t addr 4 "read4";
  if within_page addr 4 then
    Int32.to_int
      (Bytes.get_int32_le t.pages.(page_of addr) (addr land page_mask))
    land 0xFFFFFFFF
  else
    byte t addr
    lor (byte t (addr + 1) lsl 8)
    lor (byte t (addr + 2) lsl 16)
    lor (byte t (addr + 3) lsl 24)

let write_u8 t addr v =
  check t addr 1 "write1";
  set_byte t addr v;
  touch t (page_of addr)

let write_u32 t addr v =
  check t addr 4 "write4";
  let p = page_of addr in
  if within_page addr 4 then begin
    Bytes.set_int32_le (writable t p) (addr land page_mask) (Int32.of_int v);
    touch t p
  end
  else begin
    (* A straddling store touches each of its two pages once. *)
    for i = 0 to 3 do
      set_byte t (addr + i) (v lsr (8 * i))
    done;
    touch t p;
    touch t (p + 1)
  end

let load_string t ~at s =
  let n = String.length s in
  check t at n "load";
  for i = 0 to n - 1 do
    set_byte t (at + i) (Char.code (String.unsafe_get s i))
  done;
  (* An empty string stores nothing, so it touches no page. *)
  if n > 0 then
    for p = page_of at to page_of (at + n - 1) do
      touch t p
    done

(* One blit per page: the byte-wise test oracles read all 4 MiB. *)
let read_string t ~at ~len =
  check t at len "read";
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = at + !i in
    let n = min (page_size - (a land page_mask)) (len - !i) in
    Bytes.blit t.pages.(page_of a) (a land page_mask) b !i n;
    i := !i + n
  done;
  Bytes.unsafe_to_string b

let page_generation t ~page =
  if page < Array.length t.gens then t.gens.(page) else 0

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
  for p = 0 to Array.length t.pages - 1 do
    if t.gens.(p) = 0 then h := (!h * zero_page_factor) land max_int
    else
      let page = t.pages.(p) in
      for i = 0 to page_size - 1 do
        h := ((!h lxor Char.code (Bytes.unsafe_get page i)) * fnv_prime)
             land max_int
      done
  done;
  !h
