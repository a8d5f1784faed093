open Vat_desim
open Vat_guest
open Vat_host
open Vat_ir
open Vat_tiled
module Tr = Vat_trace.Trace

type outcome =
  | Exited of int
  | Fault of string
  | Out_of_fuel

(* Address of the register-allocator spill area. Spill code reaches it
   only through [Regalloc.scratch_base_reg], so accesses are routed by
   base register: a guest access to this address reaches guest memory
   (and faults there), never a spill slot. *)
let scratch_base = 0xFFF00000

type syscall_req = {
  s_eax : int;
  s_ebx : int;
  s_ecx : int;
  s_edx : int;
  s_reply : Syscall.result -> unit;
}

(* Why the engine is not currently running. A suspended engine resumes
   at [t.cur.pc]: after a blocking load, or at the instruction (a load to
   retry, or the terminator at pc = length) that found its register
   pending or no miss slot free. *)
type wait_state =
  | Running
  | Wait_reg                   (* on register [t.wait_reg] *)
  | Wait_capacity              (* on a free miss slot *)
  | Wait_fill
  | Wait_syscall
  | Finished

(* Which chain link of the block being left a dispatch may fill in. *)
type link = Unlinked | Link_taken | Link_fall

(* Pre-resolved stat counters for the per-instruction / per-event paths:
   one hashtable probe at engine construction, then one [Stats.bump] per
   event (a call, under dune's dev profile, not an inlined increment). *)
type counters = {
  c_scoreboard_suspends : Stats.counter;
  c_stall_cycles : Stats.counter;
  c_capacity_suspends : Stats.counter;
  c_l1d_loads : Stats.counter;
  c_l1d_load_misses : Stats.counter;
  c_l1d_stores : Stats.counter;
  c_l1d_store_misses : Stats.counter;
  c_l1d_writebacks : Stats.counter;
  c_smc_invalidations : Stats.counter;
  c_indirect_transfers : Stats.counter;
  c_chained_transfers : Stats.counter;
  c_dispatches : Stats.counter;
  c_l1code_hits : Stats.counter;
  c_l1code_misses : Stats.counter;
  c_l1code_installs : Stats.counter;
  c_blocks : Stats.counter;
  c_syscalls : Stats.counter;
  c_l1code_corrupt : Stats.counter;
  c_silent_corruptions : Stats.counter;
}

(* Pre-resolved trace emitters, same pattern as [counters]: dead branches
   when tracing is off. Block entries and L1 code events go on the "exec"
   track (stamped with the engine's local time, which is what the
   hot-block profile attributes); fill spans on "exec.fill". *)
type probes = {
  p_dispatch : Tr.emitter;
  p_chain : Tr.emitter;
  p_l1_hit : Tr.emitter;
  p_l1_miss : Tr.emitter;
  p_l1_install : Tr.emitter;
  p_fill_begin : Tr.emitter;
  p_fill_end : Tr.emitter;
}

type t = {
  q : Event_queue.t;
  stats : Stats.t;
  k : counters;
  pb : probes;
  cfg : Config.t;
  layout : Layout.t;
  prog : Program.t;
  manager : Manager.t;
  memsys : Memsys.t;
  world : Syscall.world;
  regs : int array;
  scratch : int array;
  ready_at : int array;        (* per register: cycle the value is usable *)
  l1 : Code_cache.L1.t;
  l1d : Cache.t;
  syscall_svc : syscall_req Service.t;
  miss_replies : (unit -> unit) array;
      (* per register: the reply to a load miss into it, built once *)
  mutable pending_mask : int;  (* bit r: register r's miss reply outstanding *)
  (* The one L1 fill outstanding while [wait = Wait_fill]: its target
     and which link of [entry] it may fill. The fill's request event and
     its reply read them; both closures are built once, in [create]. *)
  mutable fill_target : int;
  mutable fill_link : link;
  mutable fill_request : unit -> unit;
  cur : Hexec.cursor;
      (* the local cycle, the next word's index in [entry], and the stall
         cycles [Hexec.run_straight] has not yet added to the counter *)
  mutable outstanding : int;
  mutable entry : Code_cache.L1.entry option;
  mutable wait : wait_state;
  mutable wait_reg : int;      (* the register [Wait_reg] waits on *)
  mutable fuel : int;
  mutable guest_insns : int;
  mutable outcome : outcome option;
  mutable on_finish : outcome -> unit;
}

let local_time t = t.cur.time
let guest_instructions t = t.guest_insns
let output t = Syscall.output t.world

let digest t =
  Interp.state_digest t.prog.Program.mem
    ~reg:(fun i -> t.regs.(Hinsn.guest_reg_base + i))
    ~flags:(t.regs.(Hinsn.flags_reg) land Flags.all_mask)
    ~output:(output t)

let finish t outcome =
  if t.outcome = None then begin
    t.outcome <- Some outcome;
    t.wait <- Finished;
    Stats.add t.stats "exec.cycles" t.cur.time;
    let cb = t.on_finish in
    Event_queue.schedule t.q
      ~at:(max (Event_queue.now t.q) t.cur.time)
      (fun () -> cb outcome)
  end

let abort t msg = finish t (Fault msg)
let finished t = t.outcome <> None

(* Schedule an interaction with another tile at the engine's local time
   (the queue may be lagging behind the engine). *)
let at_local t f =
  Event_queue.schedule t.q ~at:(max (Event_queue.now t.q) t.cur.time) f

(* ------------------------------------------------------------------ *)
(* Functional memory (values) — timing handled separately.             *)
(* ------------------------------------------------------------------ *)

exception Guest_mem_fault of string

let value_load t (w : Hinsn.width) addr =
  try
    match w with
    | W8 -> Mem.read_u8 t.prog.Program.mem addr
    | W8s ->
      let b = Mem.read_u8 t.prog.Program.mem addr in
      if b land 0x80 <> 0 then b lor 0xFFFFFF00 else b
    | W32 -> Mem.read_u32 t.prog.Program.mem addr
  with Mem.Fault { addr; access } ->
    raise
      (Guest_mem_fault (Printf.sprintf "memory fault (%s) at 0x%x" access addr))

let value_store t (w : Hinsn.width) addr v =
  try
    match w with
    | W8 -> Mem.write_u8 t.prog.Program.mem addr v
    | W32 -> Mem.write_u32 t.prog.Program.mem addr v
    | W8s -> invalid_arg "store W8s"
  with Mem.Fault { addr; access } ->
    raise
      (Guest_mem_fault (Printf.sprintf "memory fault (%s) at 0x%x" access addr))

let scratch_slot addr = (addr - scratch_base) lsr 2

(* ------------------------------------------------------------------ *)
(* Execution loop                                                      *)
(* ------------------------------------------------------------------ *)

let trap_message : Hinsn.trap -> string = function
  | Divide_error -> "divide error"
  | Divide_overflow -> "divide overflow"

let eax = Translate.guest_pin EAX
let edx = Translate.guest_pin EDX

(* A register field of an op word (layout in [Hexec]), extracted here
   rather than through [Hexec.rs] and friends: under dune's dev profile
   ([-opaque]) each of those is a real call. *)
let[@inline] field w shift = (w lsr shift) land 31

let[@inline] pending t r = t.pending_mask land (1 lsl r) <> 0

let suspend_on t r =
  t.wait <- Wait_reg;
  t.wait_reg <- r

(* [Hexec.run_straight] runs the stretch of ALU and branch words from
   [t.cur.pc], scoreboard and stalls included; this loop runs the word
   it stops at. *)
let rec step t =
  match t.entry with
  | None -> ()
  | Some entry ->
    let ops = entry.block.ops in
    let c = t.cur in
    let stop = Hexec.run_straight c ops t.regs t.ready_at t.pending_mask in
    if c.stall <> 0 then begin
      Stats.bump_by t.k.c_stall_cycles c.stall;
      c.stall <- 0
    end;
    match stop with
    | Hexec.Ended -> terminator t entry
    | Hexec.Pending ->
      let w = ops.(c.pc) in
      suspend_on t
        (first_pending t (field w Hexec.rs_shift) (field w Hexec.rt_shift)
           (field w Hexec.ru_shift));
      Stats.bump t.k.c_scoreboard_suspends
    | Hexec.Other -> (
      let w = ops.(c.pc) in
      let rs = field w Hexec.rs_shift in
      match Hexec.kinds.(w land Hexec.opcode_mask) with
      | Hexec.Trap ->
        if Hexec.eval w t.regs.(rs) t.regs.(field w Hexec.rt_shift) <> 0 then
          finish t (Fault (trap_message (Hexec.trap w)))
        else begin
          c.time <- c.time + 1;
          c.pc <- c.pc + 1;
          step t
        end
      | Hexec.Mul64 -> exec_wide t w ~cycles:(1 + 5) (* widening multiply helper *)
      | Hexec.Div64 -> exec_wide t w ~cycles:(1 + 40) (* soft-divide helper *)
      | Hexec.Load width ->
        exec_load t width (field w Hexec.rd_shift) rs (w asr Hexec.imm_shift)
      | Hexec.Store width ->
        exec_store t width rs (field w Hexec.rt_shift) (w asr Hexec.imm_shift)
      | Hexec.Alu | Hexec.Branch -> assert false (* run_straight ran it *))

(* The first pending source in [Hinsn.uses] order, which is the order of
   the word's source fields. *)
and first_pending t rs rt ru =
  if rs <> 0 && pending t rs then rs
  else if rt <> 0 && pending t rt then rt
  else ru

and exec_wide t w ~cycles =
  match Hexec.wide t.regs w with
  | Some trap -> finish t (Fault (trap_message trap))
  | None ->
    t.cur.time <- t.cur.time + cycles;
    t.ready_at.(eax) <- t.cur.time;
    t.ready_at.(edx) <- t.cur.time;
    t.cur.pc <- t.cur.pc + 1;
    step t

and exec_load t w rd base off =
  let addr = (t.regs.(base) + off) land 0xFFFFFFFF in
  if base = Regalloc.scratch_base_reg then begin
    (* Tile-local spill area: fixed cost, no cache. *)
    t.regs.(rd) <- t.scratch.(scratch_slot addr);
    t.cur.time <- t.cur.time + 2;
    t.ready_at.(rd) <- t.cur.time + 1;
    t.cur.pc <- t.cur.pc + 1;
    step t
  end
  else begin
    match value_load t w addr with
    | exception Guest_mem_fault msg -> finish t (Fault msg)
    | v ->
      Stats.bump t.k.c_l1d_loads;
      let issue = t.cur.time in
      t.cur.time <- t.cur.time + Config.l1d_occupancy;
      t.regs.(rd) <- v;
      let { Cache.hit; writeback; parity = _ } =
        Cache.access t.l1d ~addr ~write:false
      in
      if hit then begin
        t.ready_at.(rd) <- issue + Config.l1d_hit_latency;
        t.cur.pc <- t.cur.pc + 1;
        step t
      end
      else begin
        Stats.bump t.k.c_l1d_load_misses;
        (match writeback with
         | Some wb_addr ->
           Stats.bump t.k.c_l1d_writebacks;
           at_local t (fun () ->
               Memsys.access t.memsys ~addr:wb_addr ~write:true
                 ~on_done:(fun () -> ()))
         | None -> ());
        if not t.cfg.Config.scoreboard then
          (* Scoreboarding disabled (ablation): block until the reply. *)
          issue_miss t rd addr ~blocking:true
        else if t.outstanding >= Config.max_outstanding then begin
          (* All miss slots busy: retry this load when one frees up. *)
          t.wait <- Wait_capacity;
          Stats.bump t.k.c_capacity_suspends
        end
        else begin
          issue_miss t rd addr ~blocking:false;
          t.cur.pc <- t.cur.pc + 1;
          step t
        end
      end
  end

and issue_miss t rd addr ~blocking =
  t.outstanding <- t.outstanding + 1;
  t.pending_mask <- t.pending_mask lor (1 lsl rd);
  let on_done = t.miss_replies.(rd) in
  at_local t (fun () -> Memsys.access t.memsys ~addr ~write:false ~on_done);
  if blocking then begin
    suspend_on t rd;
    (* The load itself completed functionally; resume after it. *)
    t.cur.pc <- t.cur.pc + 1
  end

and miss_reply t rd =
  t.pending_mask <- t.pending_mask land lnot (1 lsl rd);
  t.ready_at.(rd) <- Event_queue.now t.q;
  t.outstanding <- t.outstanding - 1;
  wake t

and exec_store t w rv base off =
  let addr = (t.regs.(base) + off) land 0xFFFFFFFF in
  let v =
    match w with
    | W8 -> t.regs.(rv) land 0xFF
    | W32 -> t.regs.(rv)
    | W8s -> assert false
  in
  if base = Regalloc.scratch_base_reg then begin
    t.scratch.(scratch_slot addr) <- v;
    t.cur.time <- t.cur.time + 2;
    t.cur.pc <- t.cur.pc + 1;
    step t
  end
  else begin
    match value_store t w addr v with
    | exception Guest_mem_fault msg -> finish t (Fault msg)
    | () ->
      Stats.bump t.k.c_l1d_stores;
      t.cur.time <- t.cur.time + Config.l1d_occupancy;
      (* Self-modifying-code detection: a store into a page holding
         translated code invalidates that page's blocks everywhere. *)
      let page = Mem.page_of addr in
      if Manager.page_has_code t.manager ~page then begin
        Stats.bump t.k.c_smc_invalidations;
        Manager.invalidate_page t.manager ~page;
        Code_cache.L1.flush t.l1;
        t.cur.time <- t.cur.time + 400
      end;
      let { Cache.hit; writeback; parity = _ } =
        Cache.access t.l1d ~addr ~write:true
      in
      if not hit then begin
        Stats.bump t.k.c_l1d_store_misses;
        (match writeback with
         | Some wb_addr ->
           Stats.bump t.k.c_l1d_writebacks;
           at_local t (fun () ->
               Memsys.access t.memsys ~addr:wb_addr ~write:true
                 ~on_done:(fun () -> ()))
         | None -> ());
        (* Write-allocate fill traffic; the store buffer hides latency. *)
        at_local t (fun () ->
            Memsys.access t.memsys ~addr ~write:true ~on_done:(fun () -> ()))
      end;
      t.cur.pc <- t.cur.pc + 1;
      step t
  end

(* ------------------------------------------------------------------ *)
(* Block transitions                                                   *)
(* ------------------------------------------------------------------ *)

and terminator t entry =
  let term = entry.block.term in
  match term with
  | Block.T_fault msg -> finish t (Fault msg)
  | Block.T_syscall { next } -> do_syscall t next
  | Block.T_jmp { target } -> leave_direct t entry Link_taken target
  | Block.T_call { target; _ } -> leave_direct t entry Link_taken target
  | Block.T_jcc { taken; fall } ->
    let r = Block.term_reg in
    if pending t r then suspend_on t r
    else begin
      if t.ready_at.(r) > t.cur.time then t.cur.time <- t.ready_at.(r);
      if t.regs.(r) <> 0 then leave_direct t entry Link_taken taken
      else leave_direct t entry Link_fall fall
    end
  | Block.T_jind _ ->
    let r = Block.term_reg in
    if pending t r then suspend_on t r
    else begin
      if t.ready_at.(r) > t.cur.time then t.cur.time <- t.ready_at.(r);
      Stats.bump t.k.c_indirect_transfers;
      dispatch t Unlinked t.regs.(r)
    end

and leave_direct t entry link target =
  let chained =
    if not t.cfg.Config.chaining then None
    else
      match link with
      | Link_taken -> entry.chain_taken
      | Link_fall -> entry.chain_fall
      | Unlinked -> None
  in
  match chained with
  | Some next_entry as held ->
    Stats.bump t.k.c_chained_transfers;
    t.cur.time <- t.cur.time + Config.chain_cycles;
    Tr.emit t.pb.p_chain ~cycle:t.cur.time
      ~arg:next_entry.Code_cache.L1.block.Block.guest_addr;
    enter t next_entry held
  | None -> dispatch t link target

(* [link] names the link of the block being left, which is still
   [t.entry], that the dispatched block may fill. *)
and dispatch t link target =
  Stats.bump t.k.c_dispatches;
  t.cur.time <- t.cur.time + Config.dispatch_cycles;
  match Code_cache.L1.find t.l1 target with
  | Some next_entry as held ->
    Stats.bump t.k.c_l1code_hits;
    Tr.emit t.pb.p_l1_hit ~cycle:t.cur.time ~arg:target;
    Tr.emit t.pb.p_dispatch ~cycle:t.cur.time ~arg:target;
    set_chain t link held;
    enter t next_entry held
  | None ->
    Stats.bump t.k.c_l1code_misses;
    Tr.emit t.pb.p_l1_miss ~cycle:t.cur.time ~arg:target;
    Tr.emit t.pb.p_fill_begin ~cycle:t.cur.time ~arg:target;
    t.wait <- Wait_fill;
    t.fill_target <- target;
    t.fill_link <- link;
    at_local t t.fill_request

(* The block of the outstanding fill arrived back at the execution
   tile. *)
and fill_ready t block _sum =
  let now = Event_queue.now t.q in
  if now > t.cur.time then t.cur.time <- now;
  let install_cost =
    (Block.size_bytes block / Config.l1_install_bytes_per_cycle)
    + (if t.cfg.Config.fault_tolerance then Config.checksum_cycles else 0)
  in
  t.cur.time <- t.cur.time + max 1 install_cost;
  let next_entry = Code_cache.L1.install t.l1 block in
  let held = Some next_entry in
  let target = t.fill_target in
  Stats.bump t.k.c_l1code_installs;
  Tr.emit t.pb.p_fill_end ~cycle:t.cur.time ~arg:target;
  Tr.emit t.pb.p_l1_install ~cycle:t.cur.time ~arg:target;
  Tr.emit t.pb.p_dispatch ~cycle:t.cur.time ~arg:target;
  set_chain t t.fill_link held;
  t.wait <- Running;
  enter t next_entry held

(* Nothing enters a block while a fill is outstanding, so [t.entry] is
   still the block being left when the fill's reply arrives. *)
and set_chain t link held =
  if t.cfg.Config.chaining then
    match (t.entry, link) with
    | Some entry, Link_taken -> entry.Code_cache.L1.chain_taken <- held
    | Some entry, Link_fall -> entry.Code_cache.L1.chain_fall <- held
    | None, _ | _, Unlinked -> ()

(* Every block entry — dispatch hit, fill install, or chained transfer —
   funnels through here, so this is where dispatch-time integrity
   verification lives: a resident entry whose stored sum no longer matches
   the block content is never executed. [held] is [Some next_entry], the
   option the caller already holds (a chain link, the L1 lookup's result,
   or the one built at install), so entering a block allocates nothing. *)
and enter t next_entry held =
  if next_entry.Code_cache.L1.stored_sum
     <> next_entry.Code_cache.L1.block.Block.checksum
  then
    if t.cfg.Config.fault_tolerance then begin
      (* The L1 copy took a soft error. Flush the whole L1 (chain links
         may point at the corrupt entry) and refetch from the hierarchy —
         the L2 master copy re-verifies on the way back. *)
      Stats.bump t.k.c_l1code_corrupt;
      t.cur.time <- t.cur.time + Config.checksum_cycles;
      let target = next_entry.Code_cache.L1.block.Block.guest_addr in
      Code_cache.L1.flush t.l1;
      t.entry <- None;
      dispatch t Unlinked target
    end
    else begin
      (* Unprotected configuration: the corruption goes unnoticed. The
         integrity tests assert this counter is identically zero whenever
         fault tolerance is armed. *)
      Stats.bump t.k.c_silent_corruptions;
      enter_unchecked t next_entry held
    end
  else enter_unchecked t next_entry held

and enter_unchecked t next_entry held =
  t.entry <- held;
  t.cur.pc <- 0;
  t.guest_insns <- t.guest_insns + next_entry.block.guest_insns;
  Stats.bump t.k.c_blocks;
  if t.guest_insns > t.fuel then finish t Out_of_fuel
  else if t.wait = Running then step t

and do_syscall t next =
  t.wait <- Wait_syscall;
  let reg r = t.regs.(Translate.guest_pin r) in
  let s_eax = reg EAX
  and s_ebx = reg EBX
  and s_ecx = reg ECX
  and s_edx = reg EDX in
  at_local t (fun () ->
      Service.submit t.syscall_svc
        ~delay:(Layout.lat_exec_syscall t.layout)
        { s_eax;
          s_ebx;
          s_ecx;
          s_edx;
          s_reply =
            (fun result ->
              Event_queue.after t.q
                ~delay:(Layout.lat_exec_syscall t.layout)
                (fun () ->
                  let now = Event_queue.now t.q in
                  if now > t.cur.time then t.cur.time <- now;
                  Stats.bump t.k.c_syscalls;
                  match result with
                  | Syscall.Exit status -> finish t (Exited status)
                  | Syscall.Continue v ->
                    t.regs.(Translate.guest_pin EAX) <- v land 0xFFFFFFFF;
                    t.ready_at.(Translate.guest_pin EAX) <- t.cur.time;
                    t.wait <- Running;
                    dispatch t Unlinked next)) })

and wake t =
  match t.wait with
  | Wait_reg when not (pending t t.wait_reg) ->
    let now = Event_queue.now t.q in
    if now > t.cur.time then t.cur.time <- now;
    let r = t.wait_reg in
    if t.ready_at.(r) > t.cur.time then t.cur.time <- t.ready_at.(r);
    t.wait <- Running;
    step t
  | Wait_capacity when t.outstanding < Config.max_outstanding ->
    let now = Event_queue.now t.q in
    if now > t.cur.time then t.cur.time <- now;
    t.wait <- Running;
    step t
  | Running | Wait_reg | Wait_capacity | Wait_fill | Wait_syscall | Finished ->
    ()

let create q stats cfg layout prog ~manager ~memsys ?input
    ?(trace = Tr.disabled) () =
  let regs = Array.make 32 0 in
  regs.(Translate.guest_pin ESP) <- prog.Program.initial_esp;
  regs.(Regalloc.scratch_base_reg) <- scratch_base;
  let world = Syscall.create_world ?input ~brk0:prog.Program.brk0 () in
  (* Track order is part of the trace format: "exec" and "exec.fill"
     register before the syscall service registers its own track. *)
  let exec_track = Tr.track trace "exec" in
  let fill_track = Tr.track trace "exec.fill" in
  let syscall_svc =
    Service.create ~trace q ~track:"syscall"
      ~serve:(fun { s_eax; s_edx; _ } ->
        Config.syscall_base_cycles
        + (if s_eax = Syscall.sys_write || s_eax = Syscall.sys_read then
             Config.syscall_per_byte_cycles * (s_edx land 0xFFFF)
           else 0))
      ~complete:(fun { s_eax; s_ebx; s_ecx; s_edx; s_reply } ->
        s_reply
          (Syscall.dispatch world prog.Program.mem ~eax:s_eax ~ebx:s_ebx
             ~ecx:s_ecx ~edx:s_edx))
  in
  let t =
    { q;
      stats;
      k =
        { c_scoreboard_suspends = Stats.counter stats "exec.scoreboard_suspends";
          c_stall_cycles = Stats.counter stats "exec.stall_cycles";
          c_capacity_suspends = Stats.counter stats "exec.capacity_suspends";
          c_l1d_loads = Stats.counter stats "l1d.loads";
          c_l1d_load_misses = Stats.counter stats "l1d.load_misses";
          c_l1d_stores = Stats.counter stats "l1d.stores";
          c_l1d_store_misses = Stats.counter stats "l1d.store_misses";
          c_l1d_writebacks = Stats.counter stats "l1d.writebacks";
          c_smc_invalidations = Stats.counter stats "smc.invalidations";
          c_indirect_transfers = Stats.counter stats "exec.indirect_transfers";
          c_chained_transfers = Stats.counter stats "exec.chained_transfers";
          c_dispatches = Stats.counter stats "exec.dispatches";
          c_l1code_hits = Stats.counter stats "l1code.hits";
          c_l1code_misses = Stats.counter stats "l1code.misses";
          c_l1code_installs = Stats.counter stats "l1code.installs";
          c_blocks = Stats.counter stats "exec.blocks";
          c_syscalls = Stats.counter stats "exec.syscalls";
          c_l1code_corrupt = Stats.counter stats "corrupt.l1code_detected";
          c_silent_corruptions = Stats.counter stats "corrupt.silent" };
      pb =
        { p_dispatch = Tr.emitter trace ~track:exec_track Tr.Block_dispatch;
          p_chain = Tr.emitter trace ~track:exec_track Tr.Block_chain;
          p_l1_hit = Tr.emitter trace ~track:exec_track Tr.Cache_hit;
          p_l1_miss = Tr.emitter trace ~track:exec_track Tr.Cache_miss;
          p_l1_install = Tr.emitter trace ~track:exec_track Tr.Cache_install;
          p_fill_begin = Tr.emitter trace ~track:fill_track Tr.Fill_begin;
          p_fill_end = Tr.emitter trace ~track:fill_track Tr.Fill_end };
      cfg;
      layout;
      prog;
      manager;
      memsys;
      world;
      regs;
      scratch = Array.make 4096 0;
      ready_at = Array.make 32 0;
      l1 = Code_cache.L1.create ~capacity:Config.l1_code_bytes;
      l1d =
        Cache.create ~size_bytes:Config.l1d_bytes ~ways:Config.l1d_ways
          ~line_bytes:Config.line_bytes;
      syscall_svc;
      miss_replies = Array.make 32 ignore;
      pending_mask = 0;
      fill_target = 0;
      fill_link = Unlinked;
      fill_request = ignore;
      cur = { pc = 0; time = 0; stall = 0 };
      outstanding = 0;
      entry = None;
      wait = Running;
      wait_reg = 0;
      fuel = max_int;
      guest_insns = 0;
      outcome = None;
      on_finish = ignore }
  in
  Array.iteri
    (fun rd _ -> t.miss_replies.(rd) <- (fun () -> miss_reply t rd))
    t.miss_replies;
  let on_ready = fill_ready t in
  t.fill_request <-
    (fun () ->
      Manager.note_on_path t.manager t.fill_target;
      Manager.request_fill t.manager ~addr:t.fill_target ~on_ready);
  t

let inject t (e : Fault.event) =
  match (e.site.role, e.kind) with
  | "syscall", (Fault.Slow _ as k) ->
    Service.inject t.syscall_svc k;
    `Applied
  (* A dead syscall proxy can swallow an exit in flight; treat it as the
     unrecoverable loss it is rather than hang until the watchdog. *)
  | "syscall", (Fault.Fail_stop | Fault.Drop_requests _) ->
    `Unrecoverable "syscall"
  | "exec", Fault.Corrupt_storage ->
    if Code_cache.L1.corrupt_one t.l1 ~salt:(Fault.salt e) then `Applied
    else `Absorbed
  | ("syscall" | "exec"),
    (Fault.Corrupt_payload _ | Fault.Corrupt_storage
    | Fault.Duplicate_delivery _) -> `Absorbed
  | "exec", _ -> `Unrecoverable "execution"
  | role, _ -> invalid_arg ("Exec.inject: not an execution-side site: " ^ role)

(* Checkpoint section: the complete guest-visible architectural state
   plus the engine's own scheduling state. Big arrays (guest memory,
   scratch spill area) enter as digests; everything small enough to read
   back by eye is encoded directly. Pure observation. *)
let capture t =
  let w = Vat_snapshot.Snapshot.Wr.create () in
  let module Wr = Vat_snapshot.Snapshot.Wr in
  Wr.int_array w t.regs;
  Wr.int w
    (Array.fold_left
       (fun acc v -> ((acc * 0x100000001b3) + v + 1) land max_int)
       0x1505 t.scratch);
  Wr.int_array w t.ready_at;
  Wr.int w t.pending_mask;
  Wr.int w t.cur.time;
  Wr.int w t.outstanding;
  Wr.int w
    (match t.entry with
     | Some e -> e.Code_cache.L1.block.Block.guest_addr
     | None -> -1);
  Wr.int w t.cur.pc;
  (match t.wait with
   | Running -> Wr.int_list w [ 0 ]
   | Wait_reg -> Wr.int_list w [ 1; t.wait_reg ]
   | Wait_capacity -> Wr.int_list w [ 2 ]
   | Wait_fill -> Wr.int_list w [ 3 ]
   | Wait_syscall -> Wr.int_list w [ 4 ]
   | Finished -> Wr.int_list w [ 5 ]);
  Wr.int w t.fuel;
  Wr.int w t.guest_insns;
  Wr.int w
    (match t.outcome with
     | None -> 0
     | Some (Exited n) -> 16 + n
     | Some (Fault _) -> 2
     | Some Out_of_fuel -> 3);
  Wr.int w (Mem.checksum t.prog.Program.mem);
  Wr.string w (output t);
  Wr.int w (Syscall.brk_value t.world);
  Wr.int w (Syscall.input_pos t.world);
  Wr.int w (Code_cache.L1.state_digest t.l1);
  Wr.int w (Cache.state_digest t.l1d);
  Wr.int_list w (Service.capture t.syscall_svc);
  Wr.contents w

let start t ~fuel ~on_finish =
  t.fuel <- fuel;
  t.on_finish <- on_finish;
  Manager.seed t.manager t.prog.Program.entry;
  t.wait <- Wait_fill;
  Tr.emit t.pb.p_fill_begin ~cycle:0 ~arg:t.prog.Program.entry;
  Event_queue.schedule t.q ~at:0 (fun () ->
      Manager.request_fill t.manager ~addr:t.prog.Program.entry
        ~on_ready:(fun block _sum ->
          let now = Event_queue.now t.q in
          if now > t.cur.time then t.cur.time <- now;
          let entry = Code_cache.L1.install t.l1 block in
          Tr.emit t.pb.p_fill_end ~cycle:t.cur.time
            ~arg:t.prog.Program.entry;
          Tr.emit t.pb.p_dispatch ~cycle:t.cur.time
            ~arg:t.prog.Program.entry;
          t.wait <- Running;
          enter t entry (Some entry)))
