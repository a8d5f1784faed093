(* Golden translation digests: the translator's output on the blocks the
   real workloads reach is pinned, so a rewrite of any IR pass (optimizer,
   scheduler, register allocator) that changes a single emitted
   instruction — or the register a value lands in — fails here, not as a
   silent shift in a figure.

   For each benchmark and translator config, every block reachable from
   the entry (and from every code symbol) over [Block.direct_successors]
   is translated; the digest
   covers (guest_addr, guest_len, guest_insns, checksum,
   translation_cycles, op word count) of each, in address order. The
   checksum covers the op words and terminator, so the digest pins both.
   The unoptimized config pins register allocation on raw lowered code.
   The same walk decodes each op word with [Host_oracle.decode], checks
   that the decoding encodes back to the word, and checks the word
   against the oracle on its decoding. [Block.make] builds every block,
   so the walk also shows that no reachable block loads into r0 and
   that every reachable instruction fits the one 32-bit word
   [Block.size_bytes] charges: [make] refuses both.

   It also pins the translator's host allocation: the minor words its
   [Translate.translate] calls allocate, summed per (benchmark, config),
   under [Alloc_pin]'s 2% ratchet. The pins hold for OCaml 5.1 under
   dune's dev profile, as CI builds and runs the tests; another compiler
   version or build profile allocates differently and needs its own
   pins. The same ratchet pins the heap words the walk's blocks retain
   ([Obj.reachable_words], summed), so a second copy of a block's code
   cannot creep back into [Block.t] unseen. *)

open Vat_guest
open Vat_core
open Vat_workloads

let configs =
  [ ("default", Config.default);
    ("superblocks", { Config.default with superblocks = true });
    ("noopt", { Config.default with optimize = false }) ]

(* (benchmark, config) -> (reachable blocks, MD5 of their fields, minor
   words allocated translating them, words the blocks retain). *)
let golden =
  [ (("164.gzip", "default"),
     (1867, "9cfe87745101a24f9df3e7c916ae2c0f", 2473651, 98648));
    (("164.gzip", "superblocks"),
     (1867, "b84b2fa809f41d665f5ba3aaae2c9ff1", 2768561, 104984));
    (("164.gzip", "noopt"),
     (1867, "387f57ad09509b0c6f3d9a068d138785", 2058845, 106528));
    (("175.vpr", "default"),
     (3002, "2e088530921c03fb9c766ed6743f7719", 2832936, 121394));
    (("175.vpr", "superblocks"),
     (3002, "419b54a4e26852aed38947a25deeeed4", 3210949, 129587));
    (("175.vpr", "noopt"),
     (3002, "674687591ae8ec89e4dfe4924665daa5", 2370150, 128833));
    (("176.gcc", "default"),
     (10002, "34564b3c064bab2b88eccd07e498043b", 12211039, 473062));
    (("176.gcc", "superblocks"),
     (10002, "cfa926b57fa3a81c3c32a88e4e7a953e", 13125026, 492349));
    (("176.gcc", "noopt"),
     (10002, "00063831f5ed86848bd225139c6cf895", 10242223, 519144));
    (("181.mcf", "default"),
     (1864, "10e7c63ceb73efd343d698ec6e171646", 2473867, 98703));
    (("181.mcf", "superblocks"),
     (1864, "13ef5afcb60e8c0b39ea83917d6b1dac", 2777487, 105295));
    (("181.mcf", "noopt"),
     (1864, "f15799b9f12b6e922d25770412b1cf85", 2059970, 106726));
    (("186.crafty", "default"),
     (1842, "1d16ac9ef7f0ed19b6c5006731a8f5cd", 2255702, 91875));
    (("186.crafty", "superblocks"),
     (1842, "bbaf9b3cd2435b30c1b5b4bd5953d51f", 2585497, 99020));
    (("186.crafty", "noopt"),
     (1842, "af35d425889f9ff9ac132f135d123714", 1878500, 98660));
    (("197.parser", "default"),
     (1869, "5924f059db6db43a2ee23e1bdfadc74d", 2461677, 98470));
    (("197.parser", "superblocks"),
     (1869, "f5cb2cdd0da59e2ae42f864c3a1df125", 2766602, 105165));
    (("197.parser", "noopt"),
     (1869, "fc7296af477ae2d9c1f7e54dd94c1162", 2051402, 106277));
    (("253.perlbmk", "default"),
     (55, "7ccc9a4f86ca9983bd9792041b6fc6df", 105825, 3441));
    (("253.perlbmk", "superblocks"),
     (55, "7ccc9a4f86ca9983bd9792041b6fc6df", 105825, 3441));
    (("253.perlbmk", "noopt"),
     (55, "4f5ba81d21789bd5b33b65d51436959f", 90290, 4077));
    (("254.gap", "default"),
     (1364, "b317935bdb70d0899f87a539ee1ae627", 1717890, 69738));
    (("254.gap", "superblocks"),
     (1364, "7c3331c479a26ccd486e36982599669a", 1930799, 74352));
    (("254.gap", "noopt"),
     (1364, "1fb1e3ab8f8b0c82a2364739bfbd83c8", 1432986, 75015));
    (("255.vortex", "default"),
     (1080, "afde038547f26bccb45d766dc7ae9bc0", 1401815, 55940));
    (("255.vortex", "superblocks"),
     (1064, "bc6ea4652d410c2ba0e48c0f704e798e", 1594218, 59766));
    (("255.vortex", "noopt"),
     (1080, "7c0caa98566f82bb67f0d754b11aa0cc", 1166367, 60522));
    (("256.bzip2", "default"),
     (1872, "47a2248ed09f4bfa2d82c366849c76df", 2496724, 99847));
    (("256.bzip2", "superblocks"),
     (1872, "c42c0976e2814b9a4c0e41bcbf301fe2", 2798732, 106355));
    (("256.bzip2", "noopt"),
     (1872, "dafb4bc605eb182feec8d5b77458f3f6", 2083124, 107783));
    (("300.twolf", "default"),
     (1404, "4e0a0feccef21c47b14906b2e59fa67d", 1702475, 69727));
    (("300.twolf", "superblocks"),
     (1404, "7264b7dd9f1735e43c476f7162485e14", 1951796, 75132));
    (("300.twolf", "noopt"),
     (1404, "dbd9ec0ada1ca9c99f9a0257746450d9", 1421109, 74738)) ]

(* The blocks in address order, and the minor words their translation
   allocated. *)
let reachable_blocks cfg (prog : Program.t) =
  let fetch = Mem.read_u8 prog.Program.mem in
  let seen = Hashtbl.create 1024 in
  let words = ref 0. in
  let rec visit = function
    | [] -> ()
    | addr :: rest when Hashtbl.mem seen addr -> visit rest
    | addr :: rest ->
      let w0 = Gc.minor_words () in
      let block = Translate.translate cfg ~fetch ~guest_addr:addr in
      words := !words +. (Gc.minor_words () -. w0);
      Hashtbl.add seen addr block;
      visit (List.map fst (Block.direct_successors block) @ rest)
  in
  (* Indirect dispatch (jump tables, virtual calls) hides most of some
     workloads from [direct_successors]; every code symbol is a root too. *)
  let code_end = prog.Program.code_start + prog.Program.code_size in
  let code_symbols =
    Hashtbl.fold
      (fun _ addr acc ->
        if addr >= prog.Program.code_start && addr < code_end then addr :: acc
        else acc)
      prog.Program.symbols []
  in
  visit (prog.Program.entry :: List.sort_uniq compare code_symbols);
  let blocks =
    Hashtbl.fold (fun addr b acc -> (addr, b) :: acc) seen []
    |> List.sort compare
    |> List.map snd
  in
  (blocks, int_of_float !words)

let digest blocks =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (b : Block.t) ->
      Printf.bprintf buf "%x %d %d %x %d %d\n" b.guest_addr b.guest_len
        b.guest_insns b.checksum b.translation_cycles (Array.length b.ops))
    blocks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The first op word that does not re-encode from its decoding, or that
   disagrees with [Host_oracle] on its decoding from a register file
   seeded by its address and index, as "addr[i]: insn: why", or "" if
   none. *)
let op_mismatch blocks =
  let bad = ref "" in
  List.iter
    (fun (b : Block.t) ->
      Array.iteri
        (fun i w ->
          if !bad = "" then begin
            let insn = Host_oracle.decode w in
            let fail why =
              bad := Printf.sprintf "%x[%d]: %s: %s" b.guest_addr i
                  (Vat_host.Hinsn.to_string insn) why
            in
            if Vat_host.Hexec.encode insn <> w then
              fail (Printf.sprintf "re-encodes as %x, not %x"
                      (Vat_host.Hexec.encode insn) w)
            else
              let regs =
                Array.init 32 (fun r ->
                    if r = 0 then 0 else Hashtbl.hash (b.guest_addr, i, r))
              in
              Option.iter fail (Host_oracle.mismatch ~regs insn w)
          end)
        b.ops)
    blocks;
  !bad

(* The heap words the blocks retain: what a code cache or a memo holds
   for them. *)
let footprint blocks =
  List.fold_left (fun n b -> n + Obj.reachable_words (Obj.repr b)) 0 blocks

let test_bench (b : Suite.benchmark) () =
  let prog = Suite.load b in
  List.iter
    (fun (cname, cfg) ->
      let blocks, words = reachable_blocks cfg prog in
      let actual = (List.length blocks, digest blocks) in
      let nblocks, md5, pin, retained =
        Option.value ~default:(0, "unpinned", 0, 0)
          (List.assoc_opt (b.Suite.name, cname) golden)
      in
      Alcotest.(check (pair int string))
        (Printf.sprintf "%s/%s blocks, digest" b.Suite.name cname)
        (nblocks, md5) actual;
      Alloc_pin.check
        ~what:(Printf.sprintf "%s/%s: translation" b.Suite.name cname)
        ~words ~pin;
      Alloc_pin.ratchet ~measure:"words retained"
        ~what:(Printf.sprintf "%s/%s: blocks" b.Suite.name cname)
        ~count:(footprint blocks) ~pin:retained;
      Alcotest.(check string)
        (Printf.sprintf "%s/%s op words = oracle" b.Suite.name cname)
        "" (op_mismatch blocks))
    configs

let suite =
  List.map
    (fun (b : Suite.benchmark) ->
      Alcotest.test_case b.Suite.name `Slow (test_bench b))
    Suite.all
