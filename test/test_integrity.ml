(* End-to-end integrity: translation-time checksums, soft-error
   injection (payload, storage, duplicate delivery), parity in the L2D
   banks, the install ack/retry protocol, bank/slave quarantine, and the
   central invariant — a corrupt block is never executed, and every
   recoverable corruption schedule leaves guest-visible state identical
   to a fault-free run. *)

open Vat_desim
open Vat_guest
open Vat_tiled
open Vat_core

let fuel = 2_000_000

(* ------------------------------------------------------------------ *)
(* Block checksums                                                     *)
(* ------------------------------------------------------------------ *)

let dummy_block ?term ?last addr =
  let term = Option.value term ~default:(Block.T_jmp { target = addr + 4 }) in
  let last = Option.value last ~default:(Vat_host.Hinsn.Jump (addr + 4)) in
  Block.make ~guest_addr:addr ~guest_len:4 ~guest_insns:1
    ~code:[| Vat_host.Hinsn.Nop; last |]
    ~term ~optimized:false ~translation_cycles:10 ~page_lo:(addr lsr 12)
    ~page_hi:(addr lsr 12)

let test_checksum_deterministic () =
  let b = dummy_block 0x1000 in
  Alcotest.(check int) "recompute matches translation-time sum" b.checksum
    (Block.recompute_checksum b);
  let b2 = dummy_block 0x1000 in
  Alcotest.(check int) "same content, same sum" b.checksum b2.checksum

let test_checksum_sensitive () =
  let a = dummy_block 0x1000 in
  let b = dummy_block 0x2000 in
  Alcotest.(check bool) "different address, different sum" false
    (a.Block.checksum = b.Block.checksum);
  let tampered = dummy_block ~term:(Block.T_jmp { target = 0xdead }) 0x1000 in
  Alcotest.(check bool) "different terminator, different sum" false
    (a.Block.checksum = Block.recompute_checksum tampered);
  (* The sum folds every op word, the last one included. *)
  let last_differs = dummy_block ~last:(Vat_host.Hinsn.Jump 0x1005) 0x1000 in
  Alcotest.(check bool) "different last op word, different sum" false
    (a.Block.checksum = last_differs.Block.checksum)

let test_translate_sets_checksum () =
  (* Every block produced by the real translator carries a sum that
     verifies against its content. *)
  let open Asm.Dsl in
  let items =
    [ label "start"; mov (r eax) (i 41); inc (r eax);
      mov (r eax) (i Syscall.sys_exit); int_ Syscall.vector ]
  in
  let rv = Vm.run ~fuel Config.default (Program.of_asm items) in
  (match rv.outcome with
   | Exec.Exited _ -> ()
   | _ -> Alcotest.fail "tiny program did not exit");
  Alcotest.(check int) "no silent corruption counter on clean runs" 0
    (Metrics.silent_corruptions rv)

(* ------------------------------------------------------------------ *)
(* Fault classes and the menu                                          *)
(* ------------------------------------------------------------------ *)

let test_class_round_trip () =
  List.iter
    (fun c ->
      match Fault.class_of_string (Fault.class_to_string c) with
      | Some c' -> Alcotest.(check bool) "round trip" true (c = c')
      | None -> Alcotest.failf "class %s did not parse" (Fault.class_to_string c))
    Fault.all_classes;
  Alcotest.(check (option reject)) "unknown class rejected" None
    (Fault.class_of_string "cosmic-ray");
  Alcotest.(check bool) "legacy + corruption = all" true
    (List.sort compare (Fault.legacy_classes @ Fault.corruption_classes)
    = List.sort compare Fault.all_classes)

let menu_strings menu =
  Array.to_list menu
  |> List.map (fun (site, kinds) ->
         Fault.site_to_string site ^ ":"
         ^ String.concat ","
             (Array.to_list (Array.map Fault.kind_to_string kinds)))

let test_menu_default_is_legacy () =
  (* The default menu must be byte-identical to the explicit legacy
     filter: old fault plans (and the committed fail-stop figures)
     replay unchanged. *)
  let cfg = Config.default in
  Alcotest.(check (list string)) "default = legacy"
    (menu_strings (Vm.fault_menu cfg))
    (menu_strings (Vm.fault_menu ~classes:Fault.legacy_classes cfg))

let test_menu_corruption_sites () =
  let menu = Vm.fault_menu ~classes:Fault.all_classes Config.default in
  let roles =
    Array.to_list menu |> List.map (fun (s, _) -> s.Fault.role)
  in
  Alcotest.(check bool) "exec site appears once corruption is on" true
    (List.mem "exec" roles);
  let legacy = Vm.fault_menu Config.default in
  let legacy_roles =
    Array.to_list legacy |> List.map (fun (s, _) -> s.Fault.role)
  in
  Alcotest.(check bool) "exec site absent from the legacy menu" false
    (List.mem "exec" legacy_roles)

(* Satellite: bench/figures.ml builds its cumulative-damage sweeps on
   the promise that [Fault.random] is a prefix-stable stream — growing
   [count] only appends events. Pin it as a property. *)
let prop_random_prefix_stable =
  QCheck.Test.make ~name:"Fault.random is a prefix-stable stream" ~count:50
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 10) (int_range 1 10))
    (fun (seed, n, extra) ->
      let menu = Vm.fault_menu ~classes:Fault.all_classes Config.default in
      let strs count =
        List.map Fault.event_to_string
          (Fault.events (Fault.random ~seed ~horizon:100_000 ~menu ~count))
      in
      let small = strs n and big = strs (n + extra) in
      List.length small = n
      && List.length big = n + extra
      && List.for_all (fun e -> List.mem e big) small)

(* ------------------------------------------------------------------ *)
(* Service-level corruption semantics                                  *)
(* ------------------------------------------------------------------ *)

let mk_service ?on_corrupt q completions =
  Service.create ?on_corrupt q ~track:"s" ~serve:(fun _ -> 10)
    ~complete:(fun id -> completions := id :: !completions)

let test_service_corrupt_with_handler () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc = mk_service ~on_corrupt:(fun id -> id + 1000) q completions in
  Service.inject svc (Fault.Corrupt_payload 1);
  Service.submit svc ~delay:0 1;
  Service.submit svc ~delay:1 2;
  Event_queue.run q;
  Alcotest.(check (list int)) "first arrival garbled, second clean"
    [ 1001; 2 ] (List.rev !completions);
  Alcotest.(check int) "one corruption" 1 (Service.corrupted svc);
  Alcotest.(check int) "nothing dropped" 0 (Service.dropped svc)

let test_service_corrupt_without_handler () =
  (* No transformer installed: a garbled message is undecodable and is
     lost, to be recovered by upper-layer deadlines. *)
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc = mk_service q completions in
  Service.inject svc (Fault.Corrupt_payload 1);
  Service.submit svc ~delay:0 1;
  Service.submit svc ~delay:1 2;
  Event_queue.run q;
  Alcotest.(check (list int)) "garbled message lost" [ 2 ]
    (List.rev !completions);
  Alcotest.(check int) "counted corrupted" 1 (Service.corrupted svc);
  Alcotest.(check int) "counted dropped" 1 (Service.dropped svc)

let test_service_duplicate () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc = mk_service q completions in
  Service.inject svc (Fault.Duplicate_delivery 1);
  Service.submit svc ~delay:0 1;
  Service.submit svc ~delay:1 2;
  Event_queue.run q;
  Alcotest.(check (list int)) "first delivery doubled" [ 1; 1; 2 ]
    (List.rev !completions);
  Alcotest.(check int) "one duplication" 1 (Service.duplicated svc)

(* ------------------------------------------------------------------ *)
(* L2D bank parity model                                               *)
(* ------------------------------------------------------------------ *)

let test_parity_clean_corrected () =
  let c = Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:32 in
  ignore (Cache.access c ~addr:0 ~write:false);
  (match Cache.corrupt_line c ~salt:3 ~allow_dirty:false with
   | `Clean -> ()
   | _ -> Alcotest.fail "expected a clean victim");
  let r = Cache.access c ~addr:0 ~write:false in
  Alcotest.(check bool) "detected and scrubbed" true
    (r.Cache.parity = Cache.Corrected);
  Alcotest.(check int) "parity event counted" 1 (Cache.parity_events c);
  let r2 = Cache.access c ~addr:0 ~write:false in
  Alcotest.(check bool) "scrubbed line is clean again" true
    (r2.Cache.parity = Cache.Parity_ok)

let test_parity_dirty_uncorrectable () =
  let c = Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:32 in
  ignore (Cache.access c ~addr:64 ~write:true);
  (* The only resident line is dirty: a clean-only particle is absorbed. *)
  (match Cache.corrupt_line c ~salt:0 ~allow_dirty:false with
   | `Absorbed -> ()
   | _ -> Alcotest.fail "clean-only corruption should be absorbed");
  (match Cache.corrupt_line c ~salt:0 ~allow_dirty:true with
   | `Dirty -> ()
   | _ -> Alcotest.fail "expected the dirty victim");
  let r = Cache.access c ~addr:64 ~write:false in
  Alcotest.(check bool) "dirty corruption is uncorrectable" true
    (r.Cache.parity = Cache.Uncorrectable)

let test_parity_empty_absorbed () =
  let c = Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:32 in
  match Cache.corrupt_line c ~salt:5 ~allow_dirty:true with
  | `Absorbed -> ()
  | _ -> Alcotest.fail "empty cache must absorb the particle"

(* ------------------------------------------------------------------ *)
(* VM-level recovery scenarios                                         *)
(* ------------------------------------------------------------------ *)

open Asm.Dsl

(* A loop that strides through a region much larger than the L1 data
   cache. The steady stream of L1D misses keeps the data pipeline busy
   AND keeps the execution tile's local clock synchronized with the
   event queue, so faults injected mid-run land while the hot code is
   still being re-entered (an all-hit loop would execute entirely inside
   one local-time burst and make mid-run injection times meaningless). *)
let workload_program =
  [ label "start";
    mov (r esi) (isym "data");
    mov (r eax) (i 0);
    mov (r edi) (i 0);
    mov (r ecx) (i 3000);
    label "loop";
    add (r eax) (r ecx);
    (* Load first: the line is cold (or long evicted), so the miss blocks
       the engine on the reply and synchronizes local time with the
       queue. A store-first loop would always hit the freshly allocated
       line and the whole loop would run in one local burst. *)
    add (r eax) (m ~base:esi ~index:(edi, S1) ());
    mov (m ~base:esi ~index:(edi, S1) ()) (r eax);
    add (r edi) (i 64);
    and_ (r edi) (i 0x1FFFF);
    mov (r edx) (r ecx);
    and_ (r edx) (i 0xFF);
    dec (r ecx);
    jne "loop";
    mov (r ebx) (r eax);
    and_ (r ebx) (i 0x7F);
    mov (r eax) (i Syscall.sys_exit);
    int_ Syscall.vector;
    Asm.Align 4096;
    label "data";
    Asm.Space 0x20040 ]

let interp_digest items =
  let interp = Interp.create (Program.of_asm items) in
  match Interp.run ~fuel interp with
  | Interp.Exited n -> (n, Interp.digest interp)
  | Interp.Fault m -> Alcotest.failf "interpreter faulted: %s" m
  | Interp.Out_of_fuel -> Alcotest.fail "interpreter out of fuel"

let ft_cfg =
  { Config.default with
    fault_tolerance = true;
    fill_deadline_cycles = 800;
    mem_deadline_cycles = 600;
    ack_deadline_cycles = 1200;
    watchdog_stall_cycles = 200_000 }

let check_corrupt_run ?(cfg = Config.default) items plan =
  let code, digest = interp_digest items in
  let rv = Vm.run ~fuel ~faults:plan cfg (Program.of_asm items) in
  (match rv.outcome with
   | Exec.Exited n when n = code -> ()
   | Exec.Exited n -> Alcotest.failf "wrong exit: %d, want %d" n code
   | Exec.Fault m -> Alcotest.failf "faulted: %s" m
   | Exec.Out_of_fuel -> Alcotest.fail "out of fuel");
  Alcotest.(check bool) "guest state uncorrupted" true (digest = rv.digest);
  Alcotest.(check int) "no corrupt block ever executed" 0
    (Metrics.silent_corruptions rv);
  rv

let at cycle role ?index kind =
  { Fault.at = cycle; site = Fault.site ?index role; kind }

let test_l1code_storage_recovery () =
  (* Flip stored sums in the execution tile's own instruction memory,
     repeatedly, while the hot loop runs: entry verification must catch
     the tampered residency and refetch the block. *)
  let plan =
    Fault.make ~seed:1
      (List.init 6 (fun i ->
           at (5_000 + (i * 7_000)) "exec" Fault.Corrupt_storage))
  in
  let rv = check_corrupt_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "injections landed" true
    (Metrics.get rv "corrupt.injected" >= 1);
  Alcotest.(check bool) "entry checksum caught at least one" true
    (Metrics.get rv "corrupt.l1code_detected" >= 1)

let test_code_store_corruption_recovery () =
  (* Tamper resident lines in the L2 code cache and both L1.5 banks. *)
  let plan =
    Fault.make ~seed:1
      [ at 5_000 "manager" Fault.Corrupt_storage;
        at 8_000 "l15" ~index:0 Fault.Corrupt_storage;
        at 9_000 "l15" ~index:1 Fault.Corrupt_storage;
        at 20_000 "manager" Fault.Corrupt_storage ]
  in
  let rv = check_corrupt_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "injections landed" true
    (Metrics.get rv "corrupt.injected" >= 1)

let test_payload_corruption_recovery () =
  (* Garble bursts of messages through the manager and the L1.5 banks:
     tampered sums must be rejected at a checkpoint and re-delivered. *)
  let plan =
    Fault.make ~seed:1
      [ at 10 "manager" (Fault.Corrupt_payload 4);
        at 3_000 "l15" ~index:0 (Fault.Corrupt_payload 2);
        at 6_000 "manager" (Fault.Corrupt_payload 2) ]
  in
  let rv = check_corrupt_run ~cfg:ft_cfg workload_program plan in
  let get = Metrics.get rv in
  Alcotest.(check bool) "messages were garbled" true
    (get "corrupt.messages" >= 1);
  Alcotest.(check bool) "every garble was caught somewhere" true
    (Metrics.corruptions_detected rv >= 1)

let test_duplicate_deliveries_idempotent () =
  let plan =
    Fault.make ~seed:1
      [ at 10 "manager" (Fault.Duplicate_delivery 3);
        at 2_000 "mmu" (Fault.Duplicate_delivery 2);
        at 4_000 "l2d" ~index:0 (Fault.Duplicate_delivery 2) ]
  in
  let rv = check_corrupt_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "deliveries were duplicated" true
    (Metrics.get rv "corrupt.duplicated" >= 1)

let test_data_path_corruption_recovery () =
  (* Undecodable data-path messages are dropped; deadlines retry them.
     Storage corruption in a bank is scrubbed by parity. *)
  let plan =
    Fault.make ~seed:1
      [ at 1_000 "mmu" (Fault.Corrupt_payload 2);
        at 3_000 "l2d" ~index:0 (Fault.Corrupt_payload 2);
        at 6_000 "l2d" ~index:0 Fault.Corrupt_storage;
        at 7_000 "l2d" ~index:1 Fault.Corrupt_storage ]
  in
  let rv = check_corrupt_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "injections landed" true
    (Metrics.get rv "corrupt.injected" >= 1)

let test_install_acks_retransmit () =
  (* Corrupt install messages draw no ack; the sequence-numbered retry
     machinery must retransmit until a clean copy is accepted. *)
  let plan =
    Fault.make ~seed:1 [ at 10 "manager" (Fault.Corrupt_payload 6) ]
  in
  let rv = check_corrupt_run ~cfg:ft_cfg workload_program plan in
  let get = Metrics.get rv in
  Alcotest.(check bool) "some install or fill was rejected" true
    (get "corrupt.install_rejected" + get "corrupt.fill_rejected"
     + get "corrupt.l15code_detected"
    >= 1);
  Alcotest.(check bool) "rejections were repaired, not lost" true
    (get "corrupt.install_retransmits" + get "fault.translations_requeued"
     + get "fault.fill_retries" + get "fault.demand_translates"
    >= 1)

let test_quarantine_flaky_site () =
  (* A site that keeps failing verification crosses the quarantine
     threshold and is retired like a dead tile; the run still finishes
     with correct guest state. *)
  let cfg = { ft_cfg with Config.quarantine_threshold = 1 } in
  let plan =
    Fault.make ~seed:1
      (List.init 8 (fun i ->
           at
             (4_000 + (i * 4_000))
             "l15" ~index:(i mod 2) Fault.Corrupt_storage)
      @ [ at 10 "manager" (Fault.Corrupt_payload 6) ])
  in
  let rv = check_corrupt_run ~cfg workload_program plan in
  Alcotest.(check bool) "at least one site quarantined" true
    (Metrics.quarantined_tiles rv >= 1);
  (* The bench never quarantines (its quarantined column is all zero), so
     this run pins the monitor's decisions. *)
  Alcotest.(check int) "pinned cycles" 641375 rv.Vm.cycles;
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) ("pinned " ^ name) want (Metrics.get rv name))
    [ ("corrupt.quarantined_slaves", 2);
      ("corrupt.quarantined_l15", 0);
      ("corrupt.quarantined_banks", 0) ]

let test_metrics_gating () =
  let clean = Vm.run ~fuel Config.default (Program.of_asm workload_program) in
  Alcotest.(check bool) "fault-free summary has no corruption rows" false
    (List.mem_assoc "corruptions_injected" (Metrics.summary clean));
  let plan = Fault.make ~seed:1 [ at 5_000 "exec" Fault.Corrupt_storage ] in
  let rv = check_corrupt_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "faulty summary reports corruption" true
    (List.mem_assoc "corruptions_injected" (Metrics.summary rv))

let test_knobs_inert_without_ft () =
  (* The integrity knobs must not perturb fault-free timing: with fault
     tolerance off they are dead configuration. *)
  let a = Vm.run ~fuel Config.default (Program.of_asm workload_program) in
  let noisy =
    { Config.default with
      ack_deadline_cycles = 77;
      quarantine_threshold = 1 }
  in
  let b = Vm.run ~fuel noisy (Program.of_asm workload_program) in
  Alcotest.(check int) "same cycles" a.Vm.cycles b.Vm.cycles;
  Alcotest.(check bool) "same digest" true (a.Vm.digest = b.Vm.digest)

(* ------------------------------------------------------------------ *)
(* Property: corruption is semantically transparent                    *)
(* ------------------------------------------------------------------ *)

let prop_corruption_transparency =
  QCheck.Test.make
    ~name:
      "random program + random corruption schedule = fault-free \
       interpreter state, zero silent corruptions"
    ~count:15
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 8))
    (fun (seed, n_faults) ->
      let rng = Rng.create ~seed in
      let items = Randprog.generate rng Randprog.default_params in
      let prog_i = Program.of_asm items in
      let interp = Interp.create prog_i in
      let oi = Interp.run ~fuel interp in
      let menu = Vm.fault_menu ~classes:Fault.corruption_classes ft_cfg in
      let plan =
        Fault.random ~seed:(seed + 1) ~horizon:150_000 ~menu ~count:n_faults
      in
      let rv =
        Vm.run ~fuel:(fuel * 2) ~faults:plan ft_cfg (Program.of_asm items)
      in
      if Metrics.silent_corruptions rv <> 0 then
        QCheck.Test.fail_reportf "silent corruption under plan %s"
          (Format.asprintf "%a" Fault.pp plan)
      else
        match (oi, rv.outcome) with
        | Interp.Exited a, Exec.Exited b when a = b ->
          Interp.digest interp = rv.digest
          && Interp.output interp = rv.output
        | Interp.Fault _, Exec.Fault _ -> true
        | Interp.Out_of_fuel, _ | _, Exec.Out_of_fuel -> true
        | _ ->
          QCheck.Test.fail_reportf "outcomes diverged under plan %s"
            (Format.asprintf "%a" Fault.pp plan))

let suite =
  [ Alcotest.test_case "block: checksum deterministic" `Quick
      test_checksum_deterministic;
    Alcotest.test_case "block: checksum content-sensitive" `Quick
      test_checksum_sensitive;
    Alcotest.test_case "block: translator output verifies" `Quick
      test_translate_sets_checksum;
    Alcotest.test_case "classes: string round trip" `Quick
      test_class_round_trip;
    Alcotest.test_case "menu: default equals legacy filter" `Quick
      test_menu_default_is_legacy;
    Alcotest.test_case "menu: corruption exposes the exec site" `Quick
      test_menu_corruption_sites;
    QCheck_alcotest.to_alcotest prop_random_prefix_stable;
    Alcotest.test_case "service: corrupt with transformer" `Quick
      test_service_corrupt_with_handler;
    Alcotest.test_case "service: corrupt without transformer drops" `Quick
      test_service_corrupt_without_handler;
    Alcotest.test_case "service: duplicate delivery" `Quick
      test_service_duplicate;
    Alcotest.test_case "parity: clean line corrected" `Quick
      test_parity_clean_corrected;
    Alcotest.test_case "parity: dirty line uncorrectable" `Quick
      test_parity_dirty_uncorrectable;
    Alcotest.test_case "parity: empty cache absorbs" `Quick
      test_parity_empty_absorbed;
    Alcotest.test_case "vm: L1 code storage corruption recovered" `Quick
      test_l1code_storage_recovery;
    Alcotest.test_case "vm: L2/L1.5 storage corruption recovered" `Quick
      test_code_store_corruption_recovery;
    Alcotest.test_case "vm: payload corruption detected and recovered" `Quick
      test_payload_corruption_recovery;
    Alcotest.test_case "vm: duplicate deliveries are idempotent" `Quick
      test_duplicate_deliveries_idempotent;
    Alcotest.test_case "vm: data-path corruption recovered" `Quick
      test_data_path_corruption_recovery;
    Alcotest.test_case "vm: rejected installs retransmit" `Quick
      test_install_acks_retransmit;
    Alcotest.test_case "vm: flaky sites get quarantined" `Quick
      test_quarantine_flaky_site;
    Alcotest.test_case "metrics: corruption rows gated on injection" `Quick
      test_metrics_gating;
    Alcotest.test_case "config: integrity knobs inert without ft" `Quick
      test_knobs_inert_without_ft;
    QCheck_alcotest.to_alcotest prop_corruption_transparency ]
