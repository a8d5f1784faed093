(* The morphing controller in isolation: drive a manager's translate queue
   and check the controller trades tiles in both directions with
   hysteresis. *)

open Vat_desim
open Vat_guest
open Vat_core
open Vat_tiled
open Vat_workloads
module Tr = Vat_trace.Trace

let tiny_program () =
  let open Asm.Dsl in
  Program.of_asm
    [ label "start"; mov (r ebx) (i 0); mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector ]

let setup ~threshold ~dwell =
  let q = Event_queue.create () in
  let stats = Stats.create () in
  let layout = Layout.create (Grid.create ()) in
  let prog = tiny_program () in
  let cfg =
    { (Config.mem_heavy Config.default) with
      morph = Config.Morph { threshold; dwell } }
  in
  let manager =
    Manager.create q stats cfg layout
      ~fetch:(Mem.read_u8 prog.Program.mem)
      ~page_gen:(fun ~page -> Mem.page_generation prog.Program.mem ~page)
  in
  let memsys =
    Memsys.create q stats cfg layout ~page_table:prog.Program.page_table
  in
  ignore (Morph.create q stats cfg manager memsys : Morph.t);
  (q, manager, memsys, stats, prog)

let test_morphs_up_then_down () =
  let q, manager, memsys, stats, prog = setup ~threshold:3 ~dwell:200 in
  (* Flood the queue: seed many distinct block addresses. The program's
     code is tiny, so each seed becomes a (fault) block — still a
     translation unit of work. *)
  for k = 0 to 60 do
    Manager.seed manager (prog.Program.entry + (k * 4))
  done;
  Alcotest.(check int) "starts memory-heavy" 6 (Manager.active_slaves manager);
  (* Run to quiescence: the controller must have traded up to 9
     translators while the queue was long, then traded back once it
     drained — exactly one round trip, ending memory-heavy. *)
  Event_queue.run_until q ~limit:200_000;
  Alcotest.(check int) "queue drained" 0 (Manager.queue_length manager);
  Alcotest.(check int) "ends with 6 translators" 6
    (Manager.active_slaves manager);
  Alcotest.(check int) "four banks again" 4 (Memsys.active_banks memsys);
  Alcotest.(check int) "exactly two reconfigurations (up, down)" 2
    (Stats.get stats "morph.reconfigurations")

let test_threshold_respected () =
  let q, manager, _memsys, stats, prog = setup ~threshold:1000 ~dwell:200 in
  for k = 0 to 40 do
    Manager.seed manager (prog.Program.entry + (k * 4))
  done;
  Event_queue.run_until q ~limit:600_000;
  Alcotest.(check int) "queue never crossed the bar" 0
    (Stats.get stats "morph.reconfigurations");
  Alcotest.(check int) "still 6 translators" 6 (Manager.active_slaves manager)

(* --- Quarantine monitor boundary conditions --------------------------- *)

let setup_quarantine ~quarantine_threshold =
  let q = Event_queue.create () in
  let stats = Stats.create () in
  let layout = Layout.create (Grid.create ()) in
  let prog = tiny_program () in
  let cfg =
    { Config.default with
      Config.fault_tolerance = true;
      quarantine_threshold;
      morph = Config.No_morph }
  in
  let manager =
    Manager.create q stats cfg layout
      ~fetch:(Mem.read_u8 prog.Program.mem)
      ~page_gen:(fun ~page -> Mem.page_generation prog.Program.mem ~page)
  in
  let memsys =
    Memsys.create q stats cfg layout ~page_table:prog.Program.page_table
  in
  let (_ : Morph.t) = Morph.create q stats cfg manager memsys in
  (q, stats, manager, memsys)

(* The quarantine loop reschedules itself forever, so the queue never
   drains; advance a bounded window past the current clock instead. *)
let drain q = Event_queue.run_until q ~limit:(Event_queue.now q + 20_000)

let touch q memsys ~addr =
  let fin = ref false in
  Memsys.access memsys ~addr ~write:false ~on_done:(fun () -> fin := true);
  drain q;
  Alcotest.(check bool) "access completed" true !fin

(* One detected (parity-corrected) corruption on the bank holding [addr]'s
   line: flip the resident clean line's bits, then read it back. *)
let detect_one q memsys ~addr =
  let bank = ref (-1) in
  for i = 0 to 3 do
    if !bank < 0 then
      match Memsys.corrupt_bank memsys i ~salt:1 ~allow_dirty:false with
      | `Clean -> bank := i
      | `Dirty | `Absorbed -> ()
  done;
  Alcotest.(check bool) "found a resident clean line" true (!bank >= 0);
  touch q memsys ~addr;
  !bank

let test_quarantine_at_threshold () =
  let q, stats, _manager, memsys = setup_quarantine ~quarantine_threshold:2 in
  let addr = 0x40 in
  touch q memsys ~addr;
  let b1 = detect_one q memsys ~addr in
  Alcotest.(check int) "one detection recorded" 1
    (Memsys.bank_corruptions memsys).(b1);
  Alcotest.(check bool) "below threshold: bank still alive" true
    (Memsys.bank_alive memsys b1);
  let b2 = detect_one q memsys ~addr in
  Alcotest.(check int) "second detection on the same bank" b1 b2;
  (* The next monitor sample (every sample_interval cycles) must retire
     the bank now that its count equals the threshold exactly. *)
  drain q;
  Alcotest.(check bool) "at threshold: bank quarantined" false
    (Memsys.bank_alive memsys b1);
  Alcotest.(check int) "counted under corrupt.quarantined_banks" 1
    (Stats.get stats "corrupt.quarantined_banks")

let test_quarantine_below_threshold () =
  let q, stats, _manager, memsys = setup_quarantine ~quarantine_threshold:3 in
  let addr = 0x40 in
  touch q memsys ~addr;
  let b1 = detect_one q memsys ~addr in
  let _b2 = detect_one q memsys ~addr in
  drain q;
  Alcotest.(check int) "two detections, threshold three" 2
    (Memsys.bank_corruptions memsys).(b1);
  Alcotest.(check bool) "threshold-1 detections: bank untouched" true
    (Memsys.bank_alive memsys b1);
  Alcotest.(check int) "nothing quarantined" 0
    (Stats.get stats "corrupt.quarantined_banks")

let test_quarantine_last_site_guards () =
  let _q, stats, manager, memsys = setup_quarantine ~quarantine_threshold:1 in
  (* Quarantining every slave must stop short of the last one: a virtual
     architecture with zero translators can never make progress. *)
  Manager.quarantine manager ~threshold:0;
  Alcotest.(check int) "one slave survives the purge" 1
    (Manager.usable_slaves manager);
  Alcotest.(check int) "eight slaves quarantined" 8
    (Stats.get stats "corrupt.quarantined_slaves");
  (* Same for the banked L2D: the guard keeps one bank alive. *)
  Memsys.quarantine memsys ~threshold:0;
  Alcotest.(check int) "one bank survives the purge" 1
    (Memsys.alive_banks memsys);
  Alcotest.(check int) "three banks quarantined" 3
    (Stats.get stats "corrupt.quarantined_banks")

let test_recovery_retire_bank_unguarded () =
  let q, stats, _manager, memsys = setup_quarantine ~quarantine_threshold:0 in
  Memsys.recovery_retire_bank memsys 0;
  Alcotest.(check bool) "bank 0 dead" false (Memsys.bank_alive memsys 0);
  Alcotest.(check int) "counted under recovery.quarantined_banks" 1
    (Stats.get stats "recovery.quarantined_banks");
  (* Rollback recovery must always be able to retire the faulty bank, so
     this path deliberately has no last-bank guard: with every bank gone
     the MMU serves straight from DRAM and accesses still complete. *)
  for i = 1 to 3 do
    Memsys.recovery_retire_bank memsys i
  done;
  Alcotest.(check int) "no banks left" 0 (Memsys.alive_banks memsys);
  touch q memsys ~addr:0x40;
  Alcotest.(check bool) "DRAM-direct fallback used" true
    (Stats.get stats "fault.uncached_dram_accesses" > 0)

let test_vm_input_plumbing () =
  (* The read syscall must see the input given to Vm.run. *)
  let open Asm.Dsl in
  let items =
    [ label "start";
      mov (r ebx) (i 0);
      mov (r ecx) (isym "buf");
      mov (r edx) (i 3);
      mov (r eax) (i Syscall.sys_read);
      int_ Syscall.vector;
      mov (r edx) (r eax);
      mov (r ebx) (i 1);
      mov (r ecx) (isym "buf");
      mov (r eax) (i Syscall.sys_write);
      int_ Syscall.vector;
      mov (r ebx) (i 0);
      mov (r eax) (i Syscall.sys_exit);
      int_ Syscall.vector;
      Asm.Align 4096;
      label "buf";
      Asm.Space 16 ]
  in
  let rv = Vm.run ~input:"xyz123" ~fuel:10_000 Config.default (Program.of_asm items) in
  (match rv.outcome with
   | Exec.Exited 0 -> ()
   | _ -> Alcotest.fail "expected clean exit");
  Alcotest.(check string) "echoed input prefix" "xyz" rv.output

(* --- What the controller observes on real workloads ------------------- *)

(* gcc and parser traced under the threshold-15 morphing configuration:
   the sampled translate-queue series, the controller's own maximum, and
   its decision count are pinned as literals. Both the morph sampler and
   the traced sampler read [Manager.queue_length], so any change to how
   that length is kept must leave these three observations untouched. *)
let thr15 =
  { (Config.mem_heavy Config.default) with
    morph = Config.Morph { threshold = 15; dwell = 25_000 } }

let queue_observations name =
  let trace = Tr.create ~max_records:(1 lsl 23) () in
  let r =
    Vm.run ~fuel:50_000_000 ~trace thr15 (Suite.load (Suite.find name))
  in
  Alcotest.(check int) (name ^ ": trace kept every record") 0
    (Tr.dropped trace);
  let queue_track = Tr.find_track trace "translate-queue" in
  let buf = Buffer.create 65536 in
  let decisions = ref 0 in
  Tr.iter trace (fun (rc : Tr.record) ->
      if Some rc.track = queue_track then
        Printf.bprintf buf "%d %d\n" rc.cycle rc.arg;
      if rc.kind = Tr.Morph_decision then incr decisions);
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    Stats.get r.Vm.stats "morph.max_sampled_queue",
    !decisions )

let test_queue_observations (name, expected) () =
  Alcotest.(check (triple string int int))
    (name ^ ": queue series MD5, max sampled queue, morph decisions")
    expected (queue_observations name)

let queue_pins =
  [ ("gcc", ("3d8002f14a5289b85e8f84d858bf60f6", 12, 0));
    ("parser", ("c9439a1b5d933f1fa5aced1efdd8846c", 95, 2)) ]

let suite =
  [ Alcotest.test_case "morphs up then back down" `Quick
      test_morphs_up_then_down;
    Alcotest.test_case "threshold respected" `Quick test_threshold_respected;
    Alcotest.test_case "quarantine fires exactly at threshold" `Quick
      test_quarantine_at_threshold;
    Alcotest.test_case "quarantine holds below threshold" `Quick
      test_quarantine_below_threshold;
    Alcotest.test_case "last slave and bank are never quarantined" `Quick
      test_quarantine_last_site_guards;
    Alcotest.test_case "recovery retire bypasses the last-bank guard" `Quick
      test_recovery_retire_bank_unguarded;
    Alcotest.test_case "VM input plumbing" `Quick test_vm_input_plumbing ]
  @ List.map
      (fun ((name, _) as pin) ->
        Alcotest.test_case ("queue observations pinned: " ^ name) `Slow
          (test_queue_observations pin))
      queue_pins
