(* Per-layer attribution for the traced pass. Each probe times calls into
   one layer's public functions from outside, inside a named span, and
   checks whatever modelled result the call produces. *)

open Vat_desim
open Vat_guest
open Vat_core
module Tr = Vat_trace.Trace
module Snap = Vat_snapshot.Snapshot
module Span = Vatbench_lib.Span
module Fp = Vatbench_lib.Fp
module W = Work

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let ms s = s *. 1000.
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* What the traced pass records                                        *)
(* ------------------------------------------------------------------ *)

(* Blocks a benchmark reaches (translated, dispatched or chained to),
   and the L2D request stream of its default-configuration cell as
   (cycle, physical address) bank hits and misses. *)
type observed = {
  blocks : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  streams : (string, (int * int) array) Hashtbl.t;
  mutable dropped : int;  (** records lost to the recorder's ring *)
}

let observed () =
  { blocks = Hashtbl.create 16; streams = Hashtbl.create 16; dropped = 0 }

let observe o (c : W.cell) trace =
  let name = W.short c.bench in
  let set =
    match Hashtbl.find_opt o.blocks name with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 4096 in
      Hashtbl.add o.blocks name s;
      s
  in
  let l2d =
    List.filter_map
      (fun i -> Tr.find_track trace (Printf.sprintf "l2d.%d" i))
      [ 0; 1; 2; 3 ]
  in
  let stream = ref [] in
  Tr.iter trace (fun r ->
      match r.Tr.kind with
      | Tr.Translate_end | Tr.Block_dispatch | Tr.Block_chain ->
        Hashtbl.replace set r.Tr.arg ()
      | (Tr.Cache_hit | Tr.Cache_miss) when List.mem r.Tr.track l2d ->
        stream := (r.Tr.cycle, r.Tr.arg) :: !stream
      | _ -> ());
  o.dropped <- o.dropped + Tr.dropped trace;
  if c.cfg = Config.default && (not (W.faulty c))
     && not (Hashtbl.mem o.streams name)
  then Hashtbl.replace o.streams name (Array.of_list (List.rev !stream))

let sorted_blocks o name =
  match Hashtbl.find_opt o.blocks name with
  | None -> [||]
  | Some s ->
    let a = Array.of_seq (Hashtbl.to_seq_keys s) in
    Array.sort compare a;
    a

(* ------------------------------------------------------------------ *)
(* Translation: Decode, Translate, lib/ir                              *)
(* ------------------------------------------------------------------ *)

(* Decode one block the way the translator's front end does: up to the
   block-size budget or the first block-ending instruction. *)
let decode_block fetch ~limit addr =
  let rec go at n =
    if n >= limit then n
    else
      match Decode.decode fetch ~at with
      | insn, len -> if Insn.is_block_end insn then n + 1 else go (at + len) (n + 1)
      | exception (Decode.Bad_instruction _ | Mem.Fault _) -> n
  in
  go addr 0

(* Times decode, the unoptimized translation and the workload's own
   translation over every reached block. The last fills a fresh memo per
   benchmark, which the engine probe then runs against. *)
let translation ~spans ~(setup : W.setup) ~memo_counts o (w : W.workload) =
  let cfg = Config.default in
  let noopt = { cfg with optimize = false } in
  let memos = Hashtbl.create 16 in
  let blocks = ref 0 and words = ref 0. in
  let phase name f =
    Span.with_ spans name (fun () ->
        List.iter
          (fun b ->
            let bname = W.short b in
            let prog = List.assoc bname setup.progs in
            Span.with_ spans (name ^ ".bench") ~detail:bname (fun () ->
                f bname prog (sorted_blocks o bname)))
          w.benches)
  in
  Span.with_ spans "layer.translate" (fun () ->
      phase "decode" (fun _ prog addrs ->
          let fetch = Mem.read_u8 prog.Program.mem in
          Array.iter
            (fun a -> ignore (decode_block fetch ~limit:cfg.max_block_insns a))
            addrs);
      phase "translate.noopt" (fun _ prog addrs ->
          let fetch = Mem.read_u8 prog.Program.mem in
          Array.iter
            (fun a -> ignore (Translate.translate noopt ~fetch ~guest_addr:a))
            addrs);
      phase "translate.opt" (fun bname prog addrs ->
          let mem = prog.Program.mem in
          let memo = Translate.Memo.create () in
          Hashtbl.replace memos bname memo;
          blocks := !blocks + Array.length addrs;
          let (), _, wd =
            W.timed (fun () ->
                Array.iter
                  (fun a ->
                    ignore
                      (Translate.translate_memo ~memo cfg
                         ~fetch:(Mem.read_u8 mem)
                         ~page_gen:(fun ~page -> Mem.page_generation mem ~page)
                         ~guest_addr:a))
                  addrs)
          in
          words := !words +. wd));
  let total name = ms (Span.total spans name) in
  let n = float_of_int !blocks in
  let hits, misses = memo_counts in
  ( memos,
    [ m "translate.blocks" "count" n;
      m "decode.ms" "ms" (total "decode");
      m "translate.noopt_ms" "ms" (total "translate.noopt");
      m "translate.opt_ms" "ms" (total "translate.opt");
      m "translate.optimize_ms" "ms"
        (total "translate.opt" -. total "translate.noopt");
      m "translate.us_per_block" "us" (ratio (1000. *. total "translate.opt") n);
      m "translate.alloc_mwords" "Mwords" (!words /. 1e6);
      m "translate.memo_hit_ratio" "ratio"
        (ratio (float_of_int hits) (float_of_int (hits + misses))) ] )

(* ------------------------------------------------------------------ *)
(* Engine: Vm, Exec, Manager, Event_queue, lib/tiled                   *)
(* ------------------------------------------------------------------ *)

(* The workload's plain non-morphing cells, or every benchmark under the
   default configuration when it has none. *)
let engine_cells (w : W.workload) =
  match
    List.filter
      (fun (c : W.cell) ->
        (match c.kind with W.Plain -> true | W.Checkpointed _ -> false)
        && c.cfg.morph = Config.No_morph)
      w.cells
  with
  | [] ->
    List.map
      (fun b -> { W.bench = b; key = "default"; cfg = Config.default; kind = W.Plain })
      w.benches
  | cells -> cells

(* Vm.create -> Vm.start -> Event_queue.run with a counting probe: the
   event engine alone, with every block served by a warm memo. *)
let engine ~spans ~tally ~(setup : W.setup) ~memos (w : W.workload) =
  let events = ref 0 and insns = ref 0 and words = ref 0. in
  Span.with_ spans "layer.sim" (fun () ->
      List.iter
        (fun (c : W.cell) ->
          let bname = W.short c.bench in
          let prog = List.assoc bname setup.progs in
          let memo = Hashtbl.find memos bname in
          let (cycles, gi, digest), _, wd =
            W.timed (fun () ->
                Span.with_ spans "sim.run" ~detail:(W.cell_id c) (fun () ->
                    let q = Event_queue.create () in
                    let inst =
                      Vm.create ~memo q (Stats.create ()) c.cfg (Program.clone prog)
                    in
                    Event_queue.set_probe q (fun ~now:_ ~pending:_ -> incr events);
                    let finish = ref 0 in
                    Vm.start inst ~fuel:W.fuel ~on_finish:(fun _ ->
                        finish := Event_queue.now q);
                    Event_queue.run q;
                    let x = Vm.exec_of inst in
                    (max !finish (Exec.local_time x), Exec.guest_instructions x,
                     Exec.digest x)))
          in
          words := !words +. wd;
          insns := !insns + gi;
          match W.golden (W.cell_id c) with
          | Some g ->
            W.check tally
              (g.cycles = cycles && g.insns = gi && g.digest = digest)
              (Printf.sprintf "sim/%s: %d cycles, %d insns differ from the pinned table"
                 (W.cell_id c) cycles gi)
          | None -> W.check tally false ("sim/" ^ W.cell_id c ^ ": no pinned result"))
        (engine_cells w));
  let sim = ms (Span.total spans "sim.run") in
  let n = float_of_int !insns in
  [ m "sim.ms" "ms" sim;
    m "sim.ns_per_guest_insn" "ns" (ratio (sim *. 1e6) n);
    m "desim.events" "count" (float_of_int !events);
    m "sim.alloc_words_per_insn" "words" (ratio !words n) ]

(* ------------------------------------------------------------------ *)
(* Memsys                                                              *)
(* ------------------------------------------------------------------ *)

(* Replays each recorded L2D stream, at its recorded cycles, into a
   standalone memory system under the default configuration. The trace
   carries physical addresses and no read/write flag, so the replay uses
   an identity page table and issues reads. *)
let memsys ~spans (setup : W.setup) o (w : W.workload) =
  let accesses = ref 0 and hits = ref 0 and lookups = ref 0 in
  Span.with_ spans "layer.memsys" (fun () ->
      List.iter
        (fun b ->
          let bname = W.short b in
          match Hashtbl.find_opt o.streams bname with
          | None -> ()
          | Some stream ->
            let prog = List.assoc bname setup.progs in
            Span.with_ spans "memsys.replay" ~detail:bname (fun () ->
                let q = Event_queue.create () in
                let ms =
                  Memsys.create q (Stats.create ()) Config.default
                    (Layout.create (Vat_tiled.Grid.create ()))
                    ~page_table:(Array.init (Array.length prog.Program.page_table) Fun.id)
                in
                Array.iter
                  (fun (at, addr) ->
                    Event_queue.schedule q ~at (fun () ->
                        Memsys.access ms ~addr ~write:false ~on_done:ignore))
                  stream;
                Event_queue.run q;
                accesses := !accesses + Array.length stream;
                hits := !hits + Memsys.tlb_hits ms;
                lookups := !lookups + Memsys.tlb_hits ms + Memsys.tlb_misses ms))
        w.benches);
  let n = float_of_int !accesses in
  [ m "memsys.accesses" "count" n;
    m "memsys.ns_per_access" "ns"
      (ratio (1e9 *. Span.total spans "memsys.replay") n);
    m "memsys.tlb_hit_ratio" "ratio"
      (ratio (float_of_int !hits) (float_of_int !lookups)) ]

(* ------------------------------------------------------------------ *)
(* Snapshot and recovery                                               *)
(* ------------------------------------------------------------------ *)

let median_seconds n f =
  Vatbench_lib.Stat.median
    (List.init n (fun _ ->
         let t0 = W.now () in
         f ();
         W.now () -. t0))

(* On each checkpoint benchmark (gzip and mcf for checkpoint_recovery,
   gzip alone elsewhere): bare, checkpointed, faulty-checkpointed and
   restored runs, plus per-call capture and encoding costs on a mid-run
   instance and on the run's last snapshot. *)
let snapshot ~spans ~tally ~fault_seed ~(setup : W.setup) ~memos
    (w : W.workload) =
  let benches =
    match
      List.filter_map
        (fun (c : W.cell) ->
          match c.kind with W.Checkpointed _ -> Some c.bench | W.Plain -> None)
        w.cells
    with
    | [] -> [ Vat_workloads.Suite.find "gzip" ]
    | bs -> List.filter (fun b -> List.memq b bs) w.benches
  in
  let plan = W.fault_plan ~fault_seed in
  let count = ref 0 and rollbacks = ref 0 and replayed = ref 0 in
  let bare = ref 0. and clean = ref 0. and faulty = ref 0. in
  let exec_c = ref [] and mem_c = ref [] and mgr_c = ref [] in
  let encode = ref [] and bytes = ref [] in
  let cfg = Config.default in
  Span.with_ spans "layer.snapshot" (fun () ->
      List.iter
        (fun b ->
          let bname = W.short b in
          let prog = List.assoc bname setup.progs in
          let memo = Hashtbl.find memos bname in
          let run name ?faults ?checkpoint_every ?on_checkpoint ?restore_from () =
            W.timed (fun () ->
                Span.with_ spans name ~detail:bname (fun () ->
                    Vm.run ~fuel:W.fuel ~memo ?faults ?checkpoint_every
                      ?on_checkpoint ?restore_from cfg prog))
          in
          let r_bare, s_bare, _ = run "vm.run.bare" () in
          W.check_pinned tally (bname ^ "/default") (Fp.of_result r_bare);
          let last = ref None in
          let r_clean, s_clean, _ =
            run "vm.run.checkpointed" ~checkpoint_every:W.checkpoint_every
              ~on_checkpoint:(fun s ->
                incr count;
                last := Some s)
              ()
          in
          let fp_clean = Fp.of_result r_clean in
          W.check tally
            (Fp.diff (Fp.of_result r_bare) fp_clean = [])
            (bname ^ ": checkpointing changed the modelled result");
          let r_faulty, s_faulty, _ =
            run "vm.run.faulty" ~faults:plan ~checkpoint_every:W.checkpoint_every ()
          in
          List.iter2
            (fun c r -> W.check_cell tally ~fault_seed c (Fp.of_result r))
            (W.checkpoint_cells ~fault_seed b) [ r_clean; r_faulty ];
          rollbacks := !rollbacks + Stats.get r_faulty.stats "recovery.rollbacks";
          replayed := !replayed + Stats.get r_faulty.stats "recovery.replayed_cycles";
          bare := !bare +. s_bare;
          clean := !clean +. s_clean;
          faulty := !faulty +. s_faulty;
          (match !last with
           | None -> W.check tally false (bname ^ ": no checkpoint taken")
           | Some snap ->
             let r_restored, _, _ = run "recovery.restore" ~restore_from:snap () in
             W.check tally
               (Fp.diff fp_clean (Fp.of_result r_restored) = [])
               (bname ^ ": restored run differs from the uninterrupted one");
             Span.with_ spans "snapshot.encode" ~detail:bname (fun () ->
                 encode := median_seconds 9 (fun () -> ignore (Snap.to_string snap)) :: !encode;
                 bytes := float_of_int (String.length (Snap.to_string snap)) :: !bytes));
          (* A mid-run instance: half-way through the bare run's cycles. *)
          Span.with_ spans "snapshot.capture" ~detail:bname (fun () ->
              let q = Event_queue.create () in
              let inst = Vm.create ~memo q (Stats.create ()) cfg (Program.clone prog) in
              Vm.start inst ~fuel:W.fuel ~on_finish:ignore;
              Event_queue.run_until q ~limit:(r_bare.cycles / 2);
              exec_c := median_seconds 9 (fun () -> ignore (Exec.capture (Vm.exec_of inst))) :: !exec_c;
              mem_c := median_seconds 51 (fun () -> ignore (Memsys.capture (Vm.memsys_of inst))) :: !mem_c;
              mgr_c := median_seconds 51 (fun () -> ignore (Manager.capture (Vm.manager_of inst))) :: !mgr_c))
        benches);
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
  [ m "snapshot.count" "count" (float_of_int !count);
    m "snapshot.exec_capture_ms" "ms" (ms (mean !exec_c));
    m "snapshot.memsys_capture_ms" "ms" (ms (mean !mem_c));
    m "snapshot.manager_capture_ms" "ms" (ms (mean !mgr_c));
    m "snapshot.encode_ms" "ms" (ms (mean !encode));
    m "snapshot.bytes" "bytes" (mean !bytes);
    m "snapshot.overhead_ratio" "ratio" (ratio !clean !bare);
    m "recovery.rollbacks" "count" (float_of_int !rollbacks);
    m "recovery.replayed_cycles" "cycles" (float_of_int !replayed);
    m "recovery.abandoned_ms" "ms" (ms (!faulty -. !clean));
    m "recovery.restore_ms" "ms" (ms (Span.total spans "recovery.restore")) ]
