(* Checkpoint images for the virtual architecture. Everything here is
   plain data: the module has no dependency on the simulator (the
   dependency points the other way — core subsystems encode themselves
   with [Wr] and the VM assembles the sections). *)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320)               *)
(* ------------------------------------------------------------------ *)

(* Built at module initialisation, not on first use: under OCaml 5 a
   domain that forces a [lazy] while another domain is forcing it raises
   [CamlinternalLazy.Undefined], and every [Vm.run] reaches [crc32]. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Varint codecs                                                       *)
(* ------------------------------------------------------------------ *)

let sign_shift = Sys.int_size - 1

module Wr = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  let uint b n =
    let n = ref n in
    while !n land lnot 0x7f <> 0 do
      Buffer.add_char b (Char.chr (0x80 lor (!n land 0x7f)));
      n := !n lsr 7
    done;
    Buffer.add_char b (Char.chr !n)

  let int b n = uint b ((n lsl 1) lxor (n asr sign_shift))
  let bool b v = int b (if v then 1 else 0)

  let string b s =
    uint b (String.length s);
    Buffer.add_string b s

  let int_list b xs =
    uint b (List.length xs);
    List.iter (int b) xs

  let int_array b xs =
    uint b (Array.length xs);
    Array.iter (int b) xs

  let contents = Buffer.contents
end

module Rd = struct
  type t = { s : string; mutable pos : int }

  let of_string s = { s; pos = 0 }
  let corrupt () = failwith "snapshot: truncated or corrupt data"

  let uint r =
    let n = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if r.pos >= String.length r.s then corrupt ();
      let byte = Char.code r.s.[r.pos] in
      r.pos <- r.pos + 1;
      n := !n lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := byte land 0x80 <> 0
    done;
    !n

  let int r =
    let z = uint r in
    (z lsr 1) lxor (- (z land 1))

  let bool r = int r <> 0

  let string r =
    let len = uint r in
    if len < 0 || r.pos + len > String.length r.s then corrupt ();
    let s = String.sub r.s r.pos len in
    r.pos <- r.pos + len;
    s

  let int_list r =
    let n = uint r in
    List.init n (fun _ -> int r)

  let at_end r = r.pos >= String.length r.s
end

(* ------------------------------------------------------------------ *)
(* Snapshot images                                                     *)
(* ------------------------------------------------------------------ *)

type t = {
  cycle : int;
  fingerprint : int;
  interval : int;
  sections : (string * string) list;
}

let magic = "VATSNAP1"
let version = 1

let v ~cycle ~fingerprint ~interval ~sections =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, _) ->
      if Hashtbl.mem seen name then
        invalid_arg ("Snapshot.v: duplicate section " ^ name);
      Hashtbl.add seen name ())
    sections;
  { cycle; fingerprint; interval; sections }

let cycle t = t.cycle
let fingerprint t = t.fingerprint
let interval t = t.interval
let find t name = List.assoc_opt name t.sections

let diff a b =
  let header =
    List.filter_map
      (fun (name, pa, pb) -> if pa <> pb then Some name else None)
      [ ("header:cycle", a.cycle, b.cycle);
        ("header:fingerprint", a.fingerprint, b.fingerprint);
        ("header:interval", a.interval, b.interval) ]
  in
  let names =
    List.sort_uniq compare (List.map fst a.sections @ List.map fst b.sections)
  in
  header
  @ List.filter (fun n -> find a n <> find b n) names

let equal a b = diff a b = []

let to_string t =
  let b = Wr.create () in
  Buffer.add_string b magic;
  Wr.int b version;
  Wr.int b t.cycle;
  Wr.int b t.fingerprint;
  Wr.int b t.interval;
  Wr.int b (List.length t.sections);
  List.iter
    (fun (name, payload) ->
      Wr.string b name;
      Wr.string b payload;
      Wr.int b (crc32 payload))
    t.sections;
  let body = Wr.contents b in
  let crc = crc32 body in
  let trailer = Bytes.create 4 in
  for i = 0 to 3 do
    Bytes.set trailer i (Char.chr ((crc lsr (8 * i)) land 0xff))
  done;
  body ^ Bytes.to_string trailer

let of_string s =
  let len = String.length s in
  if len < String.length magic + 4 then
    failwith "snapshot: image too short";
  if String.sub s 0 (String.length magic) <> magic then
    failwith "snapshot: bad magic (not a checkpoint file)";
  let body = String.sub s 0 (len - 4) in
  let stored =
    let v = ref 0 in
    for i = 3 downto 0 do
      v := (!v lsl 8) lor Char.code s.[len - 4 + i]
    done;
    !v
  in
  if crc32 body <> stored then failwith "snapshot: image checksum mismatch";
  let r = Rd.of_string body in
  r.Rd.pos <- String.length magic;
  let ver = Rd.int r in
  if ver <> version then
    failwith (Printf.sprintf "snapshot: unsupported version %d" ver);
  let cycle = Rd.int r in
  let fingerprint = Rd.int r in
  let interval = Rd.int r in
  let n = Rd.int r in
  if n < 0 then failwith "snapshot: truncated or corrupt data";
  let sections =
    List.init n (fun _ ->
        let name = Rd.string r in
        let payload = Rd.string r in
        let crc = Rd.int r in
        if crc32 payload <> crc then
          failwith
            (Printf.sprintf "snapshot: section %S checksum mismatch" name);
        (name, payload))
  in
  v ~cycle ~fingerprint ~interval ~sections

let save t path =
  let tmp = path ^ ".tmp" in
  try
    Out_channel.with_open_bin tmp (fun oc -> output_string oc (to_string t));
    Sys.rename tmp path
  with Sys_error reason ->
    failwith (Printf.sprintf "snapshot: cannot write %s: %s" path reason)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error reason ->
    failwith (Printf.sprintf "snapshot: cannot read %s: %s" path reason)
