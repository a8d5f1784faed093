(* Checkpoint/rollback-recovery: the snapshot binary codecs, whole-machine
   capture, and the tentpole invariants — checkpointing is transparent
   (a fault-free checkpointed run is byte-identical to a plain one),
   interrupted-and-resumed runs are cycle-, digest-, and stats-identical
   to uninterrupted ones, and previously-terminal faults are survived by
   rollback + quarantine with guest-visible state intact. *)

open Vat_desim
open Vat_guest
open Vat_core
module Snap = Vat_snapshot.Snapshot

let fuel = 2_000_000

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  Alcotest.(check int) "IEEE check vector" 0xCBF43926 (Snap.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Snap.crc32 "")

let test_codec_roundtrip () =
  let b = Snap.Wr.create () in
  let ints = [ 0; 1; -1; 63; -64; 64; 300; -300; max_int; min_int + 1 ] in
  List.iter (Snap.Wr.int b) ints;
  Snap.Wr.bool b true;
  Snap.Wr.bool b false;
  Snap.Wr.string b "hello\x00world";
  Snap.Wr.int_list b [ 5; -5; 0 ];
  Snap.Wr.int_array b [| 7; 8; 9 |];
  let r = Snap.Rd.of_string (Snap.Wr.contents b) in
  List.iter
    (fun want -> Alcotest.(check int) "int round trip" want (Snap.Rd.int r))
    ints;
  Alcotest.(check bool) "bool t" true (Snap.Rd.bool r);
  Alcotest.(check bool) "bool f" false (Snap.Rd.bool r);
  Alcotest.(check string) "string" "hello\x00world" (Snap.Rd.string r);
  Alcotest.(check (list int)) "int_list" [ 5; -5; 0 ] (Snap.Rd.int_list r);
  Alcotest.(check (list int)) "int_array" [ 7; 8; 9 ] (Snap.Rd.int_list r);
  Alcotest.(check bool) "consumed" true (Snap.Rd.at_end r)

let test_codec_truncation () =
  let b = Snap.Wr.create () in
  Snap.Wr.string b "0123456789";
  let s = Snap.Wr.contents b in
  let cut = String.sub s 0 (String.length s - 3) in
  match Snap.Rd.string (Snap.Rd.of_string cut) with
  | _ -> Alcotest.fail "truncated read succeeded"
  | exception Failure _ -> ()

let sample_snapshot () =
  Snap.v ~cycle:20_000 ~fingerprint:0x5eed ~interval:10_000
    ~sections:[ ("exec", "\x01\x02\x03"); ("l2d", ""); ("stats", "xyz") ]

let test_image_roundtrip () =
  let s = sample_snapshot () in
  let s' = Snap.of_string (Snap.to_string s) in
  Alcotest.(check bool) "equal after round trip" true (Snap.equal s s');
  Alcotest.(check (list string)) "no diff" [] (Snap.diff s s');
  Alcotest.(check int) "cycle" 20_000 (Snap.cycle s');
  Alcotest.(check int) "interval" 10_000 (Snap.interval s');
  let other =
    Snap.v ~cycle:20_000 ~fingerprint:0x5eed ~interval:10_000
      ~sections:[ ("exec", "\x01\x02\xFF"); ("l2d", ""); ("stats", "xyz") ]
  in
  Alcotest.(check (list string)) "diff names the section" [ "exec" ]
    (Snap.diff s other)

let test_image_corruption_detected () =
  let img = Bytes.of_string (Snap.to_string (sample_snapshot ())) in
  (* Flip one bit in the middle of the image: the load must fail, never
     return a silently wrong snapshot. *)
  let i = Bytes.length img / 2 in
  Bytes.set img i (Char.chr (Char.code (Bytes.get img i) lxor 0x10));
  match Snap.of_string (Bytes.to_string img) with
  | _ -> Alcotest.fail "corrupt image loaded"
  | exception Failure _ -> ()

(* Untrusted snapshot bytes are rejected with [Failure] and nothing else. *)
let prop_of_string_fuzz =
  let big =
    Snap.v ~cycle:123_456 ~fingerprint:max_int ~interval:25_000
      ~sections:
        [ ("sched", String.init 40 Char.chr); ("mgr", String.make 300 'm');
          ("recovery", "\x00") ]
  in
  QCheck.Test.make ~name:"Snapshot.of_string on mutated input raises only Failure"
    ~count:2000
    (Fuzz.mutants (List.map Snap.to_string [ sample_snapshot (); big ]))
    (fun s ->
      match Snap.of_string s with _ -> true | exception Failure _ -> true)

let test_save_load () =
  let file = Filename.temp_file "vat_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let s = sample_snapshot () in
      Snap.save s file;
      Alcotest.(check bool) "file round trip" true (Snap.equal s (Snap.load file)))

let test_duplicate_sections_rejected () =
  match
    Snap.v ~cycle:0 ~fingerprint:0 ~interval:1
      ~sections:[ ("a", "x"); ("a", "y") ]
  with
  | _ -> Alcotest.fail "duplicate section accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Whole-machine checkpointing                                         *)
(* ------------------------------------------------------------------ *)

open Asm.Dsl

(* Same shape as the fault suite's workload: enough blocks and data
   traffic to exercise fills, translations, and the memory pipeline. *)
let workload_program =
  [ label "start";
    mov (r esi) (isym "data");
    mov (r eax) (i 0);
    mov (r ecx) (i 3000);
    label "loop";
    add (r eax) (r ecx);
    mov (m ~base:esi ~disp:0 ()) (r eax);
    add (r eax) (m ~base:esi ~disp:0 ());
    mov (r edx) (r ecx);
    and_ (r edx) (i 0xFF);
    mov (m ~base:esi ~disp:4 ()) (r edx);
    dec (r ecx);
    jne "loop";
    mov (r ebx) (r eax);
    and_ (r ebx) (i 0x7F);
    mov (r eax) (i Syscall.sys_exit);
    int_ Syscall.vector;
    Asm.Align 4096;
    label "data";
    Asm.Space 64 ]

(* A 128 KiB working set streamed with stores — four times the 32 KiB L1D,
   so every pass evicts dirty lines down into the L2D banks and a storage
   corruption there deterministically threatens the only copy of real
   data. *)
let store_heavy_program =
  [ label "start";
    mov (r eax) (i 0);
    mov (r ecx) (i 8);
    label "outer";
    mov (r esi) (isym "data");
    mov (r edi) (i 2048);
    label "inner";
    mov (m ~base:esi ~disp:0 ()) (r ecx);
    add (r eax) (m ~base:esi ~disp:0 ());
    add (r esi) (i 64);
    dec (r edi);
    jne "inner";
    dec (r ecx);
    jne "outer";
    mov (r ebx) (r eax);
    and_ (r ebx) (i 0x7F);
    mov (r eax) (i Syscall.sys_exit);
    int_ Syscall.vector;
    Asm.Align 4096;
    label "data";
    Asm.Space 132_000 ]

let ft_cfg =
  { Config.default with
    fault_tolerance = true;
    fill_deadline_cycles = 800;
    mem_deadline_cycles = 600;
    ack_deadline_cycles = 1200;
    watchdog_stall_cycles = 200_000 }

let stats_alist (r : Vm.result) = Stats.to_alist r.stats

let check_same_result label (a : Vm.result) (b : Vm.result) =
  Alcotest.(check bool)
    (label ^ ": same outcome") true (a.Vm.outcome = b.Vm.outcome);
  Alcotest.(check int) (label ^ ": same cycles") a.Vm.cycles b.Vm.cycles;
  Alcotest.(check int) (label ^ ": same insns") a.Vm.guest_insns b.Vm.guest_insns;
  Alcotest.(check string) (label ^ ": same output") a.Vm.output b.Vm.output;
  Alcotest.(check bool) (label ^ ": same digest") true (a.Vm.digest = b.Vm.digest);
  Alcotest.(check (list (pair string int)))
    (label ^ ": same stats") (stats_alist a) (stats_alist b)

let run_collecting ?faults ?restore_from ~every cfg prog =
  let snaps = ref [] in
  let rv =
    Vm.run ~fuel ?faults ~checkpoint_every:every
      ~on_checkpoint:(fun s -> snaps := s :: !snaps)
      ?restore_from cfg prog
  in
  (rv, List.rev !snaps)

let test_checkpoint_transparency () =
  let prog () = Program.of_asm workload_program in
  let plain = Vm.run ~fuel Config.default (prog ()) in
  let chk, snaps = run_collecting ~every:10_000 Config.default (prog ()) in
  check_same_result "checkpointing off vs on" plain chk;
  Alcotest.(check bool) "snapshots were taken" true (List.length snaps >= 2);
  List.iteri
    (fun k s ->
      Alcotest.(check int) "cycles are interval multiples" ((k + 1) * 10_000)
        (Snap.cycle s);
      Alcotest.(check int) "interval recorded" 10_000 (Snap.interval s))
    snaps

let test_resume_identity () =
  let prog () = Program.of_asm workload_program in
  let ref_run, snaps = run_collecting ~every:10_000 Config.default (prog ()) in
  Alcotest.(check bool) "enough snapshots" true (List.length snaps >= 2);
  let mid = List.nth snaps (List.length snaps / 2) in
  let resumed, resumed_snaps =
    run_collecting ~every:10_000 ~restore_from:mid Config.default (prog ())
  in
  check_same_result "resumed vs uninterrupted" ref_run resumed;
  (* Replayed ground is not re-delivered: fresh checkpoints start at the
     snapshot's own cycle. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "no checkpoints before the restore point" true
        (Snap.cycle s >= Snap.cycle mid))
    resumed_snaps

let test_fingerprint_mismatch_rejected () =
  let _, snaps =
    run_collecting ~every:10_000 Config.default (Program.of_asm workload_program)
  in
  let snap = List.hd snaps in
  match
    Vm.run ~fuel ~restore_from:snap Config.default
      (Program.of_asm store_heavy_program)
  with
  | _ -> Alcotest.fail "foreign snapshot accepted"
  | exception Invalid_argument _ -> ()

(* Every section [Vm] captures, in capture order. *)
let section_names =
  [ "sched"; "exec"; "mgr"; "l2d"; "morph"; "fault"; "stats"; "recovery" ]

(* A real mid-run snapshot rebuilt with one byte of its exec section
   flipped: same cycle, fingerprint and interval, so only the replay's
   own capture at that cycle can tell it is not this run's. *)
let test_tampered_snapshot_fails_verification () =
  let prog () = Program.of_asm workload_program in
  let _, snaps = run_collecting ~every:10_000 Config.default (prog ()) in
  let mid = List.nth snaps (List.length snaps / 2) in
  let rebuild edit =
    Snap.v ~cycle:(Snap.cycle mid) ~fingerprint:(Snap.fingerprint mid)
      ~interval:(Snap.interval mid)
      ~sections:
        (List.map
           (fun name -> (name, edit name (Option.get (Snap.find mid name))))
           section_names)
  in
  Alcotest.(check (list string)) "rebuilt untouched, equal" []
    (Snap.diff mid (rebuild (fun _ payload -> payload)));
  let flip name payload =
    if name <> "exec" then payload
    else
      let b = Bytes.of_string payload in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Bytes.to_string b
  in
  match Vm.run ~fuel ~restore_from:(rebuild flip) Config.default (prog ()) with
  | _ -> Alcotest.fail "tampered snapshot restored"
  | exception Failure m ->
    Alcotest.(check string) "names the tampered section"
      (Printf.sprintf
         "Vm.run: restore verification failed at cycle %d; diverging \
          sections: exec"
         (Snap.cycle mid))
      m

let test_bad_interval_rejected () =
  match Vm.run ~fuel ~checkpoint_every:0 Config.default
          (Program.of_asm workload_program)
  with
  | _ -> Alcotest.fail "checkpoint_every 0 accepted"
  | exception Invalid_argument _ -> ()

(* The MD5 of a workload's first 25,000-cycle checkpoint under
   [Config.default]: pins the fingerprint and every section, the exec
   section's memory checksum included, so snapshot files written before
   a change to how those values are computed still load after it. *)
exception First_checkpoint of Snap.t

let test_first_checkpoint_pinned name md5 () =
  let b = Vat_workloads.Suite.find name in
  match
    Vm.run ~checkpoint_every:25_000
      ~on_checkpoint:(fun s -> raise (First_checkpoint s))
      Config.default (Vat_workloads.Suite.load b)
  with
  | _ -> Alcotest.failf "%s finished before its first checkpoint" name
  | exception First_checkpoint s ->
    Alcotest.(check int) "cycle" 25_000 (Snap.cycle s);
    Alcotest.(check string) "md5" md5
      (Digest.to_hex (Digest.string (Snap.to_string s)))

(* ------------------------------------------------------------------ *)
(* Rollback-recovery                                                   *)
(* ------------------------------------------------------------------ *)

let reference items =
  let interp = Interp.create (Program.of_asm items) in
  match Interp.run ~fuel interp with
  | Interp.Exited n -> (n, Interp.digest interp, Interp.output interp)
  | Interp.Fault m -> Alcotest.failf "interpreter faulted: %s" m
  | Interp.Out_of_fuel -> Alcotest.fail "interpreter out of fuel"

(* A manager fail-stop at cycle 25,000: terminal without rollback. *)
let manager_failstop_plan =
  Fault.make ~seed:1
    [ { Fault.at = 25_000; site = Fault.site "manager"; kind = Fault.Fail_stop } ]

(* Corrupt storage in L2D bank 0 at cycle 100,000: under the store-heavy
   program it hits a dirty line, an uncorrectable parity loss. *)
let dirty_parity_plan =
  Fault.make ~seed:1
    [ { Fault.at = 100_000; site = Fault.site ~index:0 "l2d";
        kind = Fault.Corrupt_storage } ]

(* Default deadlines: the 128 KiB streaming working set saturates the
   memory system, and the tight test deadlines of [ft_cfg] would wedge it
   into timeout storms before the fault even fires. *)
let parity_cfg = { Config.default with fault_tolerance = true }

let test_manager_failstop_recovery () =
  let plan = manager_failstop_plan in
  (* Without checkpointing this exact plan is terminal... *)
  let dead =
    Vm.run ~fuel ~faults:plan ft_cfg (Program.of_asm workload_program)
  in
  (match dead.Vm.outcome with
   | Exec.Fault m ->
     Alcotest.(check string) "legacy outcome preserved"
       "unrecoverable fault: manager tile failed" m
   | _ -> Alcotest.fail "manager fail-stop no longer terminal without rollback");
  (* ...and with it the run rolls back, quarantines, and completes. *)
  let code, digest, output = reference workload_program in
  let rv, _ =
    run_collecting ~faults:plan ~every:10_000 ft_cfg
      (Program.of_asm workload_program)
  in
  (match rv.Vm.outcome with
   | Exec.Exited n -> Alcotest.(check int) "exit code" code n
   | Exec.Fault m -> Alcotest.failf "still faulted: %s" m
   | Exec.Out_of_fuel -> Alcotest.fail "out of fuel");
  Alcotest.(check bool) "guest digest intact" true (digest = rv.Vm.digest);
  Alcotest.(check string) "guest output intact" output rv.Vm.output;
  Alcotest.(check int) "one rollback" 1 (Metrics.recoveries rv);
  Alcotest.(check bool) "replay was charged" true (Metrics.replayed_cycles rv > 0);
  Alcotest.(check bool) "fault was masked on replay" true
    (Metrics.get rv "recovery.masked_faults" >= 1);
  Alcotest.(check bool) "site was quarantined" true
    (Metrics.get rv "recovery.quarantines" >= 1)

let test_dirty_parity_rollback () =
  let code, digest, _ = reference store_heavy_program in
  let rv, _ =
    run_collecting ~faults:dirty_parity_plan ~every:10_000 parity_cfg
      (Program.of_asm store_heavy_program)
  in
  (match rv.Vm.outcome with
   | Exec.Exited n -> Alcotest.(check int) "exit code" code n
   | Exec.Fault m -> Alcotest.failf "faulted: %s" m
   | Exec.Out_of_fuel -> Alcotest.fail "out of fuel");
  Alcotest.(check bool) "guest digest intact" true (digest = rv.Vm.digest);
  Alcotest.(check int) "parity loss rolled back" 1 (Metrics.recoveries rv);
  Alcotest.(check bool) "bank quarantined" true
    (Metrics.get rv "recovery.quarantined_banks" >= 1);
  Alcotest.(check int) "pinned cycles" 577174 rv.Vm.cycles;
  Alcotest.(check int) "pinned rollbacks" 1
    (Metrics.get rv "recovery.rollbacks");
  Alcotest.(check int) "pinned quarantined banks" 1
    (Metrics.get rv "recovery.quarantined_banks")

(* With no rollbacks allowed, the first terminal fault ends the run with
   the message formed where the fault struck. *)
let give_up_outcome ~at ~site ~kind cfg items =
  let plan = Fault.make ~seed:1 [ { Fault.at; site; kind } ] in
  let rv =
    Vm.run ~fuel ~faults:plan ~checkpoint_every:10_000 ~max_rollbacks:0 cfg
      (Program.of_asm items)
  in
  Alcotest.(check int) "counted as unrecoverable" 1
    (Metrics.get rv "fault.unrecoverable");
  match rv.Vm.outcome with
  | Exec.Fault m -> (m, rv.Vm.cycles)
  | Exec.Exited _ | Exec.Out_of_fuel -> Alcotest.fail "expected a give-up fault"

let test_give_up_manager () =
  Alcotest.(check string) "message" "unrecoverable fault: manager tile failed"
    (fst
       (give_up_outcome ~at:25_000 ~site:(Fault.site "manager")
          ~kind:Fault.Fail_stop ft_cfg workload_program))

let test_give_up_dirty_parity () =
  let m, cycles =
    give_up_outcome ~at:100_000 ~site:(Fault.site ~index:0 "l2d")
      ~kind:Fault.Corrupt_storage
      { Config.default with fault_tolerance = true }
      store_heavy_program
  in
  let prefix = "uncorrectable L2D parity error (bank " in
  Alcotest.(check string) "message prefix" prefix
    (String.sub m 0 (min (String.length m) (String.length prefix)));
  Alcotest.(check string) "pinned message"
    "uncorrectable L2D parity error (bank 0)" m;
  Alcotest.(check int) "pinned cycles" 576498 cycles

(* The restore cycles of the recovery ledger a snapshot carries. *)
let ledger_restores snap =
  let r = Snap.Rd.of_string (Option.get (Snap.find snap "recovery")) in
  List.init (Snap.Rd.int r) (fun _ ->
      let _at = Snap.Rd.int r in
      let _role = Snap.Rd.string r in
      let _index = Snap.Rd.int r in
      let _kind = Snap.Rd.string r in
      Snap.Rd.int r)

(* A consumer only observes: a run that rolls back ends the same with
   and without one, and each attempt hands it only the checkpoints at or
   past its frontier (the latest restore cycle of its ledger). *)
let test_consumer_transparent_under_rollback () =
  List.iter
    (fun (label, plan, cfg, items) ->
      let bare =
        Vm.run ~fuel ~faults:plan ~checkpoint_every:10_000 cfg
          (Program.of_asm items)
      in
      let fed, snaps =
        run_collecting ~faults:plan ~every:10_000 cfg (Program.of_asm items)
      in
      check_same_result label bare fed;
      Alcotest.(check int) (label ^ ": one rollback") 1 (Metrics.recoveries fed);
      Alcotest.(check bool) (label ^ ": delivered after the rollback") true
        (List.exists (fun s -> ledger_restores s <> []) snaps);
      List.iter
        (fun s ->
          List.iter
            (fun restore ->
              if restore > Snap.cycle s then
                Alcotest.failf "%s: delivered cycle %d before its frontier %d"
                  label (Snap.cycle s) restore)
            (ledger_restores s))
        snaps)
    [ ("manager fail-stop", manager_failstop_plan, ft_cfg, workload_program);
      ("dirty parity", dirty_parity_plan, parity_cfg, store_heavy_program) ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let result_equal (a : Vm.result) (b : Vm.result) =
  a.Vm.outcome = b.Vm.outcome && a.Vm.cycles = b.Vm.cycles
  && a.Vm.guest_insns = b.Vm.guest_insns
  && a.Vm.output = b.Vm.output && a.Vm.digest = b.Vm.digest
  && stats_alist a = stats_alist b

let gen_run =
  QCheck.(
    triple (int_range 0 1_000_000) (int_range 2_000 30_000) (int_range 0 6))

let random_items seed =
  Randprog.generate (Rng.create ~seed) Randprog.default_params

let random_plan cfg ~seed ~count =
  Fault.random ~seed:(seed + 1) ~horizon:150_000
    ~menu:(Vm.fault_menu ~recoverable_only:false ~classes:Fault.all_classes cfg)
    ~count

let prop_checkpoint_transparent =
  QCheck.Test.make
    ~name:"fault-free checkpointed run = plain run (cycles, digest, stats)"
    ~count:8
    QCheck.(pair (int_range 0 1_000_000) (int_range 2_000 30_000))
    (fun (seed, every) ->
      let every = max 1 every in
      let items = random_items seed in
      let plain = Vm.run ~fuel Config.default (Program.of_asm items) in
      let chk =
        Vm.run ~fuel ~checkpoint_every:every Config.default
          (Program.of_asm items)
      in
      result_equal plain chk)

let prop_resume_identity =
  QCheck.Test.make
    ~name:
      "interrupted-and-resumed run = uninterrupted run, across programs \
       x checkpoint cycles x fault schedules"
    ~count:8 gen_run
    (fun (seed, every, n_faults) ->
      let every = max 1 every in
      let items = random_items seed in
      let plan = random_plan ft_cfg ~seed ~count:n_faults in
      let snaps = ref [] in
      let ref_run =
        Vm.run ~fuel ~faults:plan ~checkpoint_every:every
          ~on_checkpoint:(fun s -> snaps := s :: !snaps)
          ft_cfg (Program.of_asm items)
      in
      match !snaps with
      | [] -> QCheck.assume_fail () (* run too short to checkpoint *)
      | snaps ->
        let pick = List.nth snaps (seed mod List.length snaps) in
        let resumed =
          Vm.run ~fuel ~faults:plan ~restore_from:pick ft_cfg
            (Program.of_asm items)
        in
        if result_equal ref_run resumed then true
        else
          QCheck.Test.fail_reportf
            "resume from cycle %d diverged under plan %s" (Snap.cycle pick)
            (Format.asprintf "%a" Fault.pp plan))

let prop_no_fault_terminal =
  QCheck.Test.make
    ~name:
      "random program + random unrecoverable-class schedule + rollback = \
       fault-free guest state"
    ~count:4 gen_run
    (fun (seed, every, n_faults) ->
      (* qcheck's int shrinker can escape the generator's range; keep the
         shrunk counterexamples inside Vm.run's domain. *)
      let every = max 1 every in
      let items = random_items seed in
      let interp = Interp.create (Program.of_asm items) in
      let oi = Interp.run ~fuel interp in
      let plan = random_plan ft_cfg ~seed ~count:(max 1 n_faults) in
      let rv =
        Vm.run ~fuel:(fuel * 2) ~faults:plan ~checkpoint_every:every ft_cfg
          (Program.of_asm items)
      in
      if Metrics.silent_corruptions rv <> 0 then
        QCheck.Test.fail_reportf "silent corruption under plan %s"
          (Format.asprintf "%a" Fault.pp plan)
      else
        match (oi, rv.Vm.outcome) with
        | Interp.Exited a, Exec.Exited b when a = b ->
          Interp.digest interp = rv.Vm.digest
          && Interp.output interp = rv.Vm.output
        (* The guest program itself faulting (divide overflow, bad access)
           is not an escaped hardware fault: both engines must report the
           same guest fault, but mid-fault state may differ (test_equiv
           convention). *)
        | Interp.Fault fa, Exec.Fault fb when fa = fb -> true
        | Interp.Out_of_fuel, _ | _, Exec.Out_of_fuel -> true
        | _ ->
          QCheck.Test.fail_reportf
            "fault escaped rollback under plan %s: interp %s / vm %s"
            (Format.asprintf "%a" Fault.pp plan)
            (match oi with
             | Interp.Fault m -> "fault " ^ m
             | Interp.Exited n -> Printf.sprintf "exited %d" n
             | Interp.Out_of_fuel -> "out of fuel")
            (match rv.Vm.outcome with
             | Exec.Fault m -> "fault " ^ m
             | Exec.Exited n -> Printf.sprintf "exited %d" n
             | Exec.Out_of_fuel -> "out of fuel"))

let suite =
  [ Alcotest.test_case "crc32 check vector" `Quick test_crc32;
    Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec truncation detected" `Quick test_codec_truncation;
    Alcotest.test_case "image round trip" `Quick test_image_roundtrip;
    Alcotest.test_case "image corruption detected" `Quick
      test_image_corruption_detected;
    QCheck_alcotest.to_alcotest prop_of_string_fuzz;
    Alcotest.test_case "save/load round trip" `Quick test_save_load;
    Alcotest.test_case "duplicate sections rejected" `Quick
      test_duplicate_sections_rejected;
    Alcotest.test_case "vm: checkpointing is transparent" `Quick
      test_checkpoint_transparency;
    Alcotest.test_case "vm: resume = uninterrupted" `Quick test_resume_identity;
    Alcotest.test_case "vm: foreign snapshot rejected" `Quick
      test_fingerprint_mismatch_rejected;
    Alcotest.test_case "vm: a tampered snapshot fails restore verification"
      `Quick test_tampered_snapshot_fails_verification;
    Alcotest.test_case "vm: non-positive interval rejected" `Quick
      test_bad_interval_rejected;
    Alcotest.test_case "vm: gzip first checkpoint pinned" `Quick
      (test_first_checkpoint_pinned "gzip" "9c4c508066e89fbb33cefad8cac183ca");
    Alcotest.test_case "vm: mcf first checkpoint pinned" `Quick
      (test_first_checkpoint_pinned "mcf" "a1dcdc1e9a97414dc48b5d88e1942152");
    Alcotest.test_case "vm: manager fail-stop recovered by rollback" `Quick
      test_manager_failstop_recovery;
    Alcotest.test_case "vm: dirty L2D parity loss recovered by rollback" `Quick
      test_dirty_parity_rollback;
    Alcotest.test_case "vm: rollback give-up keeps the manager message" `Quick
      test_give_up_manager;
    Alcotest.test_case "vm: rollback give-up keeps the parity message" `Quick
      test_give_up_dirty_parity;
    Alcotest.test_case "vm: a consumer is transparent under rollback" `Quick
      test_consumer_transparent_under_rollback;
    QCheck_alcotest.to_alcotest prop_checkpoint_transparent;
    QCheck_alcotest.to_alcotest prop_resume_identity;
    QCheck_alcotest.to_alcotest prop_no_fault_terminal ]
