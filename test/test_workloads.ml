(* Workload-suite tests: every SpecInt surrogate must terminate cleanly,
   produce identical results under the reference interpreter and the
   translated execution, and exhibit the architectural characteristic it
   was built for. *)

open Vat_guest
open Vat_core
open Vat_workloads

let fuel = 5_000_000

let interp_run b =
  let interp = Interp.create (Suite.load b) in
  let o = Interp.run ~fuel interp in
  (o, interp)

let exits name = function
  | Interp.Exited _ -> ()
  | Interp.Fault m -> Alcotest.failf "%s faulted: %s" name m
  | Interp.Out_of_fuel -> Alcotest.failf "%s ran out of fuel" name

let test_terminates (b : Suite.benchmark) () =
  let o, interp = interp_run b in
  exits b.name o;
  if Interp.instret interp < 10_000 then
    Alcotest.failf "%s too short: %d instructions" b.name
      (Interp.instret interp)

(* One [Config.default] run per workload, shared by the tests below,
   with the translation memo it primed. *)
let primed =
  let cache = Hashtbl.create 16 in
  fun (b : Suite.benchmark) ->
    match Hashtbl.find_opt cache b.name with
    | Some rm -> rm
    | None ->
      let memo = Translate.Memo.create () in
      let r = Vm.run ~memo ~fuel:50_000_000 Config.default (Suite.load b) in
      (match r.outcome with
       | Exec.Exited _ -> ()
       | _ -> Alcotest.failf "%s did not exit on the VM" b.name);
      Hashtbl.replace cache b.name (r, memo);
      (r, memo)

let vm_result b = fst (primed b)

let test_translated_equivalence (b : Suite.benchmark) () =
  let o, interp = interp_run b in
  exits b.name o;
  Alcotest.(check int) "digest" (Interp.digest interp) (vm_result b).digest

(* Final digests under [Config.default]. "translated = interpreted"
   compares two values that both go through [Mem.checksum], so it
   cannot see a checksum that changed the same way on both sides; these
   literals can. *)
let pinned_digests =
  [ ("164.gzip", 1353453789984137141);
    ("175.vpr", 2846997419513241383);
    ("176.gcc", 1488603187804896643);
    ("181.mcf", 182667750691814383);
    ("186.crafty", 4501027325854176820);
    ("197.parser", 4561277253611975776);
    ("253.perlbmk", 1143232362721045476);
    ("254.gap", 1804526245910383207);
    ("255.vortex", 506818204942048);
    ("256.bzip2", 3594239002108822765);
    ("300.twolf", 4326816713723460106) ]

let test_digest_pinned (b : Suite.benchmark) () =
  Alcotest.(check int) "digest" (List.assoc b.name pinned_digests)
    (vm_result b).digest

(* Every counter of every workload, pinned under [Config.default] and
   under the blocking-miss ablation ([scoreboard = false]): the engine's
   timing ([exec.cycles], [exec.stall_cycles], the suspend counts) and
   the L1 data cache's traffic ([l1d.*]) cannot move without failing
   here. One MD5 per config over the benchmarks' sorted [Stats], in
   suite order. *)
let pinned_stats =
  [ ("default", vm_result, "fdd1e3b592dff201bce4cb39bd1940f8");
    ( "blocking misses",
      (fun b ->
        Vm.run ~fuel:50_000_000
          { Config.default with scoreboard = false }
          (Suite.load b)),
      "cfacd6c175cc651fdfee548cbeafdc38" ) ]

let test_stats_pinned run md5 () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (b : Suite.benchmark) ->
      List.iter
        (fun (name, v) -> Printf.bprintf buf "%s %s %d\n" b.name name v)
        (Vat_desim.Stats.to_alist (run b).Vm.stats))
    Suite.all;
  Alcotest.(check string) "MD5 of every workload's stats" md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The engine's host allocation: the minor words of a warm
   [Config.default] [Vm.run] of each workload, over the memo its first
   run primed, so no translation is in the count and the event queue,
   the tiles' services and the exec engine carry it. gzip and mcf are
   also pinned checkpointed every 25,000 cycles with no consumer, which
   adds the checkpoint chain but no snapshot. [Alloc_pin]'s 2% ratchet
   applies. The pins hold for OCaml 5.1 under dune's dev profile, as CI
   builds and runs the tests; another compiler version or build profile
   allocates differently and needs its own pins. *)
let engine_words =
  [ ("164.gzip", 185457);
    ("175.vpr", 517802);
    ("176.gcc", 1397783);
    ("181.mcf", 857904);
    ("186.crafty", 330952);
    ("197.parser", 427827);
    ("253.perlbmk", 20632);
    ("254.gap", 250024);
    ("255.vortex", 123981);
    ("256.bzip2", 245469);
    ("300.twolf", 260131) ]

let checkpointed_words = [ ("164.gzip", 186316); ("181.mcf", 860570) ]

let warm_run_words ?checkpoint_every (b : Suite.benchmark) =
  let _, memo = primed b in
  let prog = Suite.load b in
  let w0 = Gc.minor_words () in
  let r = Vm.run ~memo ?checkpoint_every ~fuel:50_000_000 Config.default prog in
  let words = int_of_float (Gc.minor_words () -. w0) in
  Alcotest.(check int) "warm run, same digest" (vm_result b).digest r.digest;
  (words, r.cycles)

(* A checkpoint that no consumer reads builds no snapshot: beyond the
   plain run, each may allocate only its event's closure and the next
   link of the chain. *)
let unread_checkpoint_words = 32

let test_engine_alloc (b : Suite.benchmark) () =
  let plain, _ = warm_run_words b in
  Alloc_pin.check
    ~what:(b.name ^ ": a warm run")
    ~words:plain
    ~pin:(List.assoc b.name engine_words);
  Option.iter
    (fun pin ->
      let every = 25_000 in
      let words, cycles = warm_run_words ~checkpoint_every:every b in
      Alloc_pin.check
        ~what:(b.name ^ ": a warm run checkpointed every 25,000 cycles")
        ~words ~pin;
      let checkpoints = cycles / every in
      if words - plain > unread_checkpoint_words * checkpoints then
        Alcotest.failf
          "%s: %d unread checkpoints allocated %d minor words beyond the \
           plain run, more than %d each"
          b.name checkpoints (words - plain) unread_checkpoint_words)
    (List.assoc_opt b.name checkpointed_words)

(* The events a warm [Config.default] run of each workload dispatches,
   built the way perfbench's engine layer builds it ([Vm.create] over
   the primed memo, [Vm.start], then the queue run until empty) and
   counted by an [Event_queue] probe. An event added or dropped fails
   here even when every stat holds. *)
let pinned_events =
  [ ("164.gzip", 14447);
    ("175.vpr", 47954);
    ("176.gcc", 114578);
    ("181.mcf", 216140);
    ("186.crafty", 34443);
    ("197.parser", 87029);
    ("253.perlbmk", 1370);
    ("254.gap", 26078);
    ("255.vortex", 13984);
    ("256.bzip2", 31778);
    ("300.twolf", 27894) ]

let test_events_pinned (b : Suite.benchmark) () =
  let _, memo = primed b in
  let q = Vat_desim.Event_queue.create () in
  let vm =
    Vm.create ~memo q (Vat_desim.Stats.create ()) Config.default (Suite.load b)
  in
  let events = ref 0 and outcome = ref None in
  Vat_desim.Event_queue.set_probe q (fun ~now:_ ~pending:_ -> incr events);
  Vm.start vm ~fuel:50_000_000 ~on_finish:(fun o -> outcome := Some o);
  Vat_desim.Event_queue.run q;
  (match !outcome with
   | Some (Exec.Exited _) -> ()
   | _ -> Alcotest.failf "%s did not exit" b.name);
  Alcotest.(check int) "same digest as Vm.run" (vm_result b).digest
    (Exec.digest (Vm.exec_of vm));
  Alcotest.(check int) "events" (List.assoc b.name pinned_events) !events

(* [Program.clone] shares guest pages until they are written, so a
   clone costs a few words per page (the page, owner and generation
   arrays and the page table), not the 524,288 words of a copied 4 MiB
   image. Words are counted wherever they are allocated: arrays this
   large go straight to the major heap. *)
let clone_words_per_page = 8

let test_clone_alloc (b : Suite.benchmark) () =
  let prog = Suite.load b in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = allocated () in
  let c = Program.clone prog in
  let words = int_of_float (allocated () -. w0) in
  let pages = Mem.size c.mem / Mem.page_size in
  if words > clone_words_per_page * pages then
    Alcotest.failf "%s: a clone of %d pages allocated %d words, more than %d \
                    a page"
      b.name pages words clone_words_per_page

let test_deterministic (b : Suite.benchmark) () =
  (* Program construction is deterministic: same digest twice. *)
  let _, i1 = interp_run b in
  let _, i2 = interp_run b in
  Alcotest.(check bool) "same digest" true (Interp.digest i1 = Interp.digest i2)

(* Characteristics: the axes that drive the paper's figures. *)

let test_code_working_set_axis () =
  (* The big-code group must show far higher L2 code-cache traffic than
     the small-code group (Figure 6's decades). *)
  let rate n = Metrics.l2_code_accesses_per_cycle (vm_result (Suite.find n)) in
  let small = [ "mcf"; "perlbmk" ] and big = [ "gcc"; "vpr"; "crafty" ] in
  List.iter
    (fun s ->
      List.iter
        (fun bg ->
          if rate bg < 2.0 *. rate s then
            Alcotest.failf "%s (%.2e) should far exceed %s (%.2e)" bg (rate bg)
              s (rate s))
        big)
    small

let test_chaining_axis () =
  (* Small hot loops chain; code-thrashing benchmarks cannot. *)
  let chain n = Metrics.chain_rate (vm_result (Suite.find n)) in
  if chain "gzip" < 0.8 then
    Alcotest.failf "gzip should chain (%.2f)" (chain "gzip");
  if chain "mcf" < 0.8 then Alcotest.failf "mcf should chain (%.2f)" (chain "mcf");
  if chain "gcc" > 0.2 then
    Alcotest.failf "gcc should thrash the L1 code cache (%.2f)" (chain "gcc")

let test_memory_axis () =
  (* mcf must reward the 4-bank data cache strongly. *)
  let b = Suite.find "mcf" in
  let r1 = Vm.run ~fuel:50_000_000 (Config.trans_heavy Config.default) (Suite.load b) in
  let r4 = Vm.run ~fuel:50_000_000 (Config.mem_heavy Config.default) (Suite.load b) in
  if not (float_of_int r4.cycles < 0.85 *. float_of_int r1.cycles) then
    Alcotest.failf "mcf should gain >15%% from 4 banks (1 bank %d, 4 banks %d)"
      r1.cycles r4.cycles

let test_indirect_axis () =
  (* perlbmk's dispatch is indirect: speculation cannot hide its L2 code
     misses, so its L2 miss *rate* stays high. *)
  let r = vm_result (Suite.find "perlbmk") in
  if Metrics.l2_code_miss_rate r < 0.5 then
    Alcotest.failf "perlbmk L2 code misses should be demand-dominated (%.2f)"
      (Metrics.l2_code_miss_rate r)

let suite =
  List.concat_map
    (fun (b : Suite.benchmark) ->
      [ Alcotest.test_case (b.name ^ " terminates") `Quick (test_terminates b);
        Alcotest.test_case (b.name ^ " translated = interpreted") `Quick
          (test_translated_equivalence b);
        Alcotest.test_case (b.name ^ " digest pinned") `Quick
          (test_digest_pinned b);
        Alcotest.test_case (b.name ^ " deterministic") `Quick
          (test_deterministic b);
        Alcotest.test_case (b.name ^ " clone allocates per page") `Quick
          (test_clone_alloc b);
        Alcotest.test_case (b.name ^ " engine allocation pinned") `Slow
          (test_engine_alloc b);
        Alcotest.test_case (b.name ^ " event count pinned") `Slow
          (test_events_pinned b) ])
    Suite.all
  @ [ Alcotest.test_case "axis: code working set" `Slow
        test_code_working_set_axis;
      Alcotest.test_case "axis: chaining" `Slow test_chaining_axis;
      Alcotest.test_case "axis: memory banks" `Slow test_memory_axis;
      Alcotest.test_case "axis: indirect dispatch" `Slow test_indirect_axis ]
  @ List.map
      (fun (name, run, md5) ->
        Alcotest.test_case ("stats pinned: " ^ name) `Slow
          (test_stats_pinned run md5))
      pinned_stats
