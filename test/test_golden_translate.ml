(* Golden translation digests: the translator's output on the blocks the
   real workloads reach is pinned, so a rewrite of any IR pass (optimizer,
   scheduler, register allocator) that changes a single emitted
   instruction — or the register a value lands in — fails here, not as a
   silent shift in a figure.

   For each benchmark and translator config, every block reachable from
   the entry (and from every code symbol) over [Block.direct_successors]
   is translated; the digest
   covers (guest_addr, guest_len, guest_insns, checksum,
   translation_cycles, code length) of each, in address order. The
   checksum covers the code and terminator, so the digest pins both.
   The unoptimized config pins register allocation on raw lowered code.
   The same walk checks each block's op words against the oracle in
   [Host_oracle]. [Block.make] builds every block, so the walk also
   shows that no reachable block loads into r0 and that every reachable
   instruction fits the one 32-bit word [Block.size_bytes] charges:
   [make] refuses both.

   It also pins the translator's host allocation: the minor words its
   [Translate.translate] calls allocate, summed per (benchmark, config),
   under [Alloc_pin]'s 2% ratchet. The pins hold for OCaml 5.1 under
   dune's dev profile, as CI builds and runs the tests; another compiler
   version or build profile allocates differently and needs its own
   pins. *)

open Vat_guest
open Vat_core
open Vat_workloads

let configs =
  [ ("default", Config.default);
    ("superblocks", { Config.default with superblocks = true });
    ("noopt", { Config.default with optimize = false }) ]

(* (benchmark, config) -> (reachable blocks, MD5 of their fields, minor
   words allocated translating them). *)
let golden =
  [ (("164.gzip", "default"),
     (1867, "4f77092c2d63a17a63142a594b26c937", 2473651));
    (("164.gzip", "superblocks"),
     (1867, "3175b4551de93cc1d495ea55813c9dd4", 2768561));
    (("164.gzip", "noopt"),
     (1867, "1c4c058209fab8ad35d4cff37aabbb7f", 2058845));
    (("175.vpr", "default"),
     (3002, "d6c15455314581be10d09f9fe4101b49", 2832936));
    (("175.vpr", "superblocks"),
     (3002, "dd68657a01003e76af0c23cba326e122", 3210949));
    (("175.vpr", "noopt"),
     (3002, "7c3b0e3aebc05e52953e9ebf0717c855", 2370150));
    (("176.gcc", "default"),
     (10002, "a887fcdb38f91d2196c118f5510c1f3e", 12211039));
    (("176.gcc", "superblocks"),
     (10002, "d0be44df9d599ea23624b207e7ba0e7b", 13125026));
    (("176.gcc", "noopt"),
     (10002, "bf7e69f9f04d12911950fabab545f020", 10242223));
    (("181.mcf", "default"),
     (1864, "8a8cfe0f70136272b7c8432362b03472", 2473867));
    (("181.mcf", "superblocks"),
     (1864, "23c17a0c7d83689ddae323dccf701ca4", 2777487));
    (("181.mcf", "noopt"),
     (1864, "ed5c0d07de732b4ad3c35a531ca9d3b7", 2059970));
    (("186.crafty", "default"),
     (1842, "ad7d6d78d301f99eaad9591e09a20d8c", 2255702));
    (("186.crafty", "superblocks"),
     (1842, "597675bd767784bd0ad44d9d0b1cf3a6", 2585497));
    (("186.crafty", "noopt"),
     (1842, "ac9ae462017693a611afbe57e217a8c5", 1878500));
    (("197.parser", "default"),
     (1869, "c5899c5501d682e51485f396bdd446e5", 2461677));
    (("197.parser", "superblocks"),
     (1869, "f48b02464a0d8e96bd8193c368bc36f6", 2766602));
    (("197.parser", "noopt"),
     (1869, "a2a6769fe5912db2c8a4a2e332055e31", 2051402));
    (("253.perlbmk", "default"),
     (55, "1913a1dceaf21853e06f193fe6bca725", 105825));
    (("253.perlbmk", "superblocks"),
     (55, "1913a1dceaf21853e06f193fe6bca725", 105825));
    (("253.perlbmk", "noopt"),
     (55, "21e3d6f554dbd0b45bee597565993287", 90290));
    (("254.gap", "default"),
     (1364, "79ec18634d249ee2b5c6b66e8d84cb80", 1717890));
    (("254.gap", "superblocks"),
     (1364, "0bb6db9ce16b798a0d48c58650330c03", 1930799));
    (("254.gap", "noopt"),
     (1364, "d0414077a59487507255364f1a0648da", 1432986));
    (("255.vortex", "default"),
     (1080, "4139a4ed5b72368968d57e30ebe4e8e0", 1401815));
    (("255.vortex", "superblocks"),
     (1064, "fe20cf9b5e468f261037933ced20d3f7", 1594218));
    (("255.vortex", "noopt"),
     (1080, "a3af50ee14564875e1534c0bc4f06a4c", 1166367));
    (("256.bzip2", "default"),
     (1872, "a5ef9e33d43e9185da84be0f79655db9", 2496724));
    (("256.bzip2", "superblocks"),
     (1872, "ded59a6c00de90dcde6b7b4f877fd573", 2798732));
    (("256.bzip2", "noopt"),
     (1872, "c46e31708cfa98c781e21dcc3c75112e", 2083124));
    (("300.twolf", "default"),
     (1404, "4099ddaa488a5170c11f36edbe808dee", 1702475));
    (("300.twolf", "superblocks"),
     (1404, "1dc3935529267a7431c4d072a121d707", 1951796));
    (("300.twolf", "noopt"),
     (1404, "2227cc9939dbd4f17e7a758762c359e1", 1421109)) ]

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
        b.guest_insns b.checksum b.translation_cycles (Array.length b.code))
    blocks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The first instruction whose op word disagrees with [Host_oracle] from
   a register file seeded by its address and index, as
   "addr[i]: insn: why", or "" if none. *)
let op_mismatch blocks =
  let bad = ref "" in
  List.iter
    (fun (b : Block.t) ->
      if !bad = "" && Array.length b.ops <> Array.length b.code then
        bad := Printf.sprintf "%x: %d ops for %d instructions" b.guest_addr
            (Array.length b.ops) (Array.length b.code);
      Array.iteri
        (fun i (insn : Vat_host.Hinsn.t) ->
          if !bad = "" then begin
            let regs =
              Array.init 32 (fun r ->
                  if r = 0 then 0 else Hashtbl.hash (b.guest_addr, i, r))
            in
            Option.iter
              (fun why ->
                bad := Printf.sprintf "%x[%d]: %s: %s" b.guest_addr i
                    (Vat_host.Hinsn.to_string insn) why)
              (Host_oracle.mismatch ~regs insn b.ops.(i))
          end)
        b.code)
    blocks;
  !bad

let test_bench (b : Suite.benchmark) () =
  let prog = Suite.load b in
  List.iter
    (fun (cname, cfg) ->
      let blocks, words = reachable_blocks cfg prog in
      let actual = (List.length blocks, digest blocks) in
      let nblocks, md5, pin =
        Option.value ~default:(0, "unpinned", 0)
          (List.assoc_opt (b.Suite.name, cname) golden)
      in
      Alcotest.(check (pair int string))
        (Printf.sprintf "%s/%s blocks, digest" b.Suite.name cname)
        (nblocks, md5) actual;
      Alloc_pin.check
        ~what:(Printf.sprintf "%s/%s: translation" b.Suite.name cname)
        ~words ~pin;
      Alcotest.(check string)
        (Printf.sprintf "%s/%s op words = oracle" b.Suite.name cname)
        "" (op_mismatch blocks))
    configs

let suite =
  List.map
    (fun (b : Suite.benchmark) ->
      Alcotest.test_case b.Suite.name `Slow (test_bench b))
    Suite.all
