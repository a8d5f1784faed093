(* Timing tests for the pipelined data-memory system: the simulated round
   trips must land on the paper's Figure 11 intrinsics, banks must serve
   concurrently, and reconfiguration must drain and flush correctly. *)

open Vat_desim
open Vat_tiled
open Vat_core

let make ?(cfg = Config.default) () =
  let q = Event_queue.create () in
  let stats = Stats.create () in
  let layout = Layout.create (Grid.create ()) in
  let pages = Array.init 1024 (fun i -> i) in
  let ms = Memsys.create q stats cfg layout ~page_table:pages in
  (q, stats, ms)

(* One access, returning its round-trip latency (excluding the exec tile's
   own L1 occupancy, which Figure 11 folds in separately). *)
let round_trip q ms addr =
  let done_at = ref (-1) in
  let t0 = Event_queue.now q in
  Memsys.access ms ~addr ~write:false ~on_done:(fun () ->
      done_at := Event_queue.now q);
  Event_queue.run q;
  !done_at - t0

let test_latency_calibration () =
  let q, _, ms = make () in
  (* Cold access: TLB miss + L2D miss. Warm it up first with a TLB-filling
     access, then measure the miss and hit paths on distinct lines. *)
  let miss1 = round_trip q ms 0x100 in
  ignore miss1; (* TLB cold: walk + DRAM *)
  let hit = round_trip q ms 0x104 in
  (* Same page (TLB hit), different line (L2D miss). *)
  let miss = round_trip q ms 0x800 in
  (* Figure 11: L2 hit lat 87, L2 miss lat 151 — minus the exec-side L1
     occupancy of 4 those are 83 and 147; our path is calibrated within a
     few cycles. *)
  if abs (hit - 84) > 6 then
    Alcotest.failf "L2 hit round trip %d not near 84" hit;
  if abs (miss - 148) > 8 then
    Alcotest.failf "L2 miss round trip %d not near 148" miss

let test_tlb_walk_costs () =
  let q, _, ms = make () in
  (* Same line, so the only difference is the TLB: first access walks. *)
  let cold = round_trip q ms 0x5000 in
  let warm = round_trip q ms 0x5004 in
  Alcotest.(check int) "walk premium"
    (Config.mmu_walk_cycles - Config.mmu_tlb_hit_cycles)
    (cold - warm - Config.dram_cycles)

let test_bank_parallelism () =
  (* Two misses to different banks overlap; to the same bank serialize. *)
  let measure addr_b =
    let q, _, ms = make ~cfg:(Config.mem_heavy Config.default) () in
    let finished = ref 0 in
    let t_end = ref 0 in
    let submit addr =
      Memsys.access ms ~addr ~write:false ~on_done:(fun () ->
          incr finished;
          t_end := Event_queue.now q)
    in
    submit 0x0;
    submit addr_b;
    Event_queue.run q;
    Alcotest.(check int) "both done" 2 !finished;
    !t_end
  in
  let different_banks = measure 32 (* next line -> next bank *) in
  let same_bank = measure 128 (* 4 lines on, same bank with 4 banks *) in
  if different_banks >= same_bank then
    Alcotest.failf "bank parallelism missing: diff=%d same=%d" different_banks
      same_bank

let test_reconfigure_flushes () =
  let q, _, ms = make ~cfg:(Config.mem_heavy Config.default) () in
  (* Dirty some lines in the banks. *)
  let pending = ref 0 in
  for i = 0 to 7 do
    incr pending;
    Memsys.access ms ~addr:(i * 32) ~write:true ~on_done:(fun () ->
        decr pending)
  done;
  Event_queue.run q;
  Alcotest.(check int) "writes done" 0 !pending;
  let dirty = ref (-1) in
  Memsys.reconfigure_banks ms 1 ~on_done:(fun d -> dirty := d);
  Event_queue.run q;
  Alcotest.(check int) "dirty lines written back" 8 !dirty;
  Alcotest.(check int) "bank count changed" 1 (Memsys.active_banks ms)

let test_reconfigure_noop () =
  let q, _, ms = make ~cfg:(Config.mem_heavy Config.default) () in
  let called = ref false in
  Memsys.reconfigure_banks ms 4 ~on_done:(fun _ -> called := true);
  Event_queue.run q;
  Alcotest.(check bool) "same count is immediate" true !called

(* The TLB against a model that scans every entry on each lookup (the
   lookup itself stops at the hit): per access, hit or miss; at the end,
   the tags, LRU stamps, tick and counts in the MMU's checkpoint section. *)
let prop_tlb_model =
  let vpage =
    QCheck.Gen.(frequency [ (3, int_range 0 15); (2, int_range 0 149) ])
  in
  QCheck.Test.make ~name:"TLB: lookups = full-scan model" ~count:100
    QCheck.(
      make
        ~print:(fun l -> String.concat " " (List.map string_of_int l))
        Gen.(list_size (int_range 1 400) vpage))
    (fun vpages ->
      let q, _, ms = make () in
      let n = Config.tlb_entries in
      let tags = Array.make n (-1) and lru = Array.make n 0 in
      let tick = ref 0 and hits = ref 0 and misses = ref 0 in
      let model_lookup vpage =
        incr tick;
        let found = ref false in
        for i = 0 to n - 1 do
          if tags.(i) = vpage then begin
            found := true;
            lru.(i) <- !tick
          end
        done;
        if !found then incr hits
        else begin
          incr misses;
          let victim = ref 0 in
          for i = 1 to n - 1 do
            if lru.(i) < lru.(!victim) then victim := i
          done;
          tags.(!victim) <- vpage;
          lru.(!victim) <- !tick
        end;
        !found
      in
      let agree =
        List.for_all
          (fun vpage ->
            let before = Memsys.tlb_hits ms in
            Memsys.access ms
              ~addr:((vpage * Vat_guest.Mem.page_size) + 8)
              ~write:false ~on_done:ignore;
            Event_queue.run q;
            model_lookup vpage = (Memsys.tlb_hits ms > before))
          vpages
      in
      let module Rd = Vat_snapshot.Snapshot.Rd in
      let r = Rd.of_string (Memsys.capture ms) in
      let captured_tags = Rd.int_list r in
      let captured_lru = Rd.int_list r in
      let captured_tick = Rd.int r in
      let captured_hits = Rd.int r in
      let captured_misses = Rd.int r in
      agree
      && captured_tags = Array.to_list tags
      && captured_lru = Array.to_list lru
      && (captured_tick, captured_hits, captured_misses)
         = (!tick, !hits, !misses))

let suite =
  [ Alcotest.test_case "Figure 11 latency calibration" `Quick
      test_latency_calibration;
    Alcotest.test_case "TLB walk premium" `Quick test_tlb_walk_costs;
    Alcotest.test_case "bank parallelism" `Quick test_bank_parallelism;
    Alcotest.test_case "reconfigure flushes dirty lines" `Quick
      test_reconfigure_flushes;
    Alcotest.test_case "reconfigure to same count" `Quick test_reconfigure_noop;
    QCheck_alcotest.to_alcotest prop_tlb_model ]
