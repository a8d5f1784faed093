(* IR-layer tests: the optimizer and scheduler must preserve semantics on
   randomly generated bodies with skips and memory accesses; register
   allocation must eliminate virtual registers; linearization must enforce
   the forward-branch invariant. *)

open Vat_host
open Vat_ir

(* --- Random bodies over virtual registers ------------------------- *)

module G = struct
  open QCheck.Gen

  (* Generation is def-use threaded: a source register is always either a
     pinned input (r8..r12) or a virtual register defined on every path
     to it, so the body's meaning never depends on allocation leftovers.
     Bodies mix ALU work with W32 loads and stores and with forward skips:
     a branch or jump over a nested run, closed by its label. A vreg
     first defined inside a skipped run is not live after its label. *)
  let pinned = List.init 5 (fun i -> 8 + i)

  let src defined = oneofl (defined @ pinned)

  let addr_base defined = frequency [ (2, oneofl [ 8; 9 ]); (1, src defined) ]

  let fresh defined = 1 + List.fold_left max (Hinsn.first_vreg - 1) defined

  let body_insn defined : Hinsn.t t =
    let open Hinsn in
    let rd = oneofl (fresh defined :: defined) in
    frequency
      [ (5,
         let* op = oneofl [ Add; Sub; And; Or; Xor; Nor; Slt; Sltu; Mul ] in
         let* rd = rd and* rs = src defined and* rt = src defined in
         return (Alu3 (op, rd, rs, rt)));
        (3,
         let* op = oneofl [ Addi; Andi; Ori; Xori ] in
         let* rd = rd and* rs = src defined in
         (* Addi's immediate is signed, the logical ones' unsigned. *)
         let* imm =
           if op = Addi then int_range (-32768) 32767 else int_range 0 0xFFFF
         in
         return (Alui (op, rd, rs, imm)));
        (* Constants and copies, for folding and copy propagation. *)
        (1,
         let* rd = rd and* imm = int_range 0 0xFFFF in
         return (Alui (Ori, rd, r0, imm)));
        (2,
         let* rd = rd and* rs = src defined in
         return (Alu3 (Or, rd, rs, r0)));
        (2,
         let* rd = rd and* rs = src defined in
         let* n = int_range 0 31 in
         let* op = oneofl [ Sll; Srl; Sra ] in
         return (Shifti (op, rd, rs, n)));
        (2,
         let* rd = rd and* rs = src defined in
         let* p = int_range 0 24 and* s = int_range 1 8 in
         return (Ext (rd, rs, p, s)));
        ((if defined = [] then 0 else 1),
         (* Ins reads its destination: only redefine existing vregs. *)
         let* rd = oneofl defined in
         let* rs = src defined in
         let* p = int_range 0 24 and* s = int_range 1 8 in
         return (Ins (rd, rs, p, s)));
        (1,
         let* rd = rd and* imm = int_range 0 0xFFFF in
         return (Lui (rd, imm)));
        (* Word accesses, mostly off r8 and r9 at a few offsets, so the
           same (base, offset) recurs; [run_body]'s guest memory is four
           words, so distinct pairs often alias too. *)
        (3,
         let* rd = rd and* base = addr_base defined in
         let* off = oneofl [ 0; 4; 8 ] in
         return (Load (W32, rd, base, off)));
        (2,
         let* rv = src defined and* base = addr_base defined in
         let* off = oneofl [ 0; 4; 8 ] in
         return (Store (W32, rv, base, off))) ]

  (* A word loaded, a store to a word that may alias it, and the same
     load again: store-to-load forwarding must see the store. *)
  let reload defined : Hinsn.t list t =
    let v = fresh defined in
    let* base = addr_base defined and* off = oneofl [ 0; 4; 8 ] in
    let* base' = addr_base defined and* off' = oneofl [ 0; 4; 8 ] in
    let* rv = src defined in
    return
      Hinsn.
        [ Load (W32, v, base, off); Store (W32, rv, base', off');
          Load (W32, v + 1, base, off) ]

  let add_defs defined insn =
    List.fold_left
      (fun d r ->
        if r >= Hinsn.first_vreg && not (List.mem r d) then r :: d else d)
      defined (Hinsn.defs insn)

  (* [n] items after [rev] (reversed), nesting skips [depth] deep; labels
     are numbered from [label]. Returns the reversed items, the vregs
     defined on every path to the end, and the next label. *)
  let rec run ~depth n defined label rev =
    if n <= 0 then return (rev, defined, label)
    else
      let* skip = if depth > 0 then int_range 0 5 else return 1 in
      if skip = 0 then begin
        let* branch =
          let open Hinsn in
          frequency
            [ (4,
               let* c = oneofl [ Beq; Bne ] in
               let* rs = src defined and* rt = src defined in
               return (Branch (c, rs, rt, label)));
              (2,
               let* c = oneofl [ Bltz; Bgez; Blez; Bgtz ] in
               let* rs = src defined in
               return (Branch (c, rs, r0, label)));
              (1, return (Jump label)) ]
        in
        let* inner = int_range 1 5 in
        let* rev', _, label' =
          run ~depth:(depth - 1) inner defined (label + 1)
            (Lblock.I branch :: rev)
        in
        run ~depth (n - 1) defined label' (Lblock.L label :: rev')
      end
      else
        let* insns =
          frequency
            [ (12, map (fun i -> [ i ]) (body_insn defined));
              (1, reload defined) ]
        in
        run ~depth (n - 1)
          (List.fold_left add_defs defined insns)
          label
          (List.rev_append (List.map (fun i -> Lblock.I i) insns) rev)

  let body =
    let* n = int_range 3 25 in
    let* rev, defined, _ = run ~depth:2 n [] 0 [] in
    let vregs = List.filter (fun r -> r >= Hinsn.first_vreg) defined in
    (* Three moves into pinned registers, and most vregs folded into r16,
       so most final values are observed and the rest are dead. *)
    let* outs = list_repeat 3 (pair (int_range 8 15) (src vregs)) in
    let* folded =
      flatten_l
        (List.map (fun v -> map (fun k -> (k, v)) (int_range 0 2)) vregs)
    in
    let writes =
      List.map (fun (hw, s) -> Hinsn.Alu3 (Add, hw, s, Hinsn.r0)) outs
      @ List.filter_map
          (fun (k, v) ->
            if k = 0 then None else Some (Hinsn.Alu3 (Xor, 16, 16, v)))
          folded
    in
    return (List.rev_append rev (List.map (fun i -> Lblock.I i) writes))
end

(* Bodies are generated as item lists; a pass runs in place on an array
   body built from one, and [through] hands back its list form. *)
let through pass items =
  let b = Lblock.of_list items in
  pass b;
  Lblock.to_list b

let insns items =
  List.filter_map (function Lblock.I i -> Some i | L _ -> None) items

let insn_count items = List.length (insns items)

(* A body after register allocation and linearization. *)
let code_of items =
  let b = Lblock.of_list items in
  Regalloc.allocate b;
  Lblock.linearize b

let arb_body =
  QCheck.make
    ~print:(fun items ->
      String.concat "\n"
        (List.map
           (function
             | Lblock.I i -> Hinsn.to_string i
             | Lblock.L l -> Printf.sprintf "L%d:" l)
           items))
    G.body

let live_out = List.init 9 (fun i -> 8 + i)

(* Run a body (after allocation + linearization) and return the pinned
   register file and the guest memory. Guest memory is four words, indexed
   by address bits 2-3; spill slots have their own array. Accesses are
   routed by base register, as [Exec] routes them: only spill code
   addresses through [Regalloc.scratch_base_reg], so a spill cannot alias
   a guest location. *)
let run_body items =
  let code = code_of items in
  let regs = Array.make 32 0 in
  for i = 8 to 16 do
    regs.(i) <- (i * 0x01010101) land 0xFFFFFFFF
  done;
  regs.(Regalloc.scratch_base_reg) <- 0xFFF00000;
  let guest = Array.init 4 (fun i -> (i + 1) * 0x11111111) in
  let spill = Array.make 1024 0 in
  let words a : Hexec.mem_access =
    let at addr = (addr lsr 2) land (Array.length a - 1) in
    { load = (fun _ addr -> a.(at addr));
      store = (fun _ addr v -> a.(at addr) <- v) }
  in
  let guest_mem = words guest and spill_mem = words spill in
  let rec go pc fuel =
    if fuel = 0 then Alcotest.fail "runaway block"
    else if pc < Array.length code then begin
      let mem =
        match code.(pc) with
        | Load (_, _, base, _) | Store (_, _, base, _)
          when base = Regalloc.scratch_base_reg -> spill_mem
        | _ -> guest_mem
      in
      match Host_oracle.run_word ~regs ~mem (Hexec.encode code.(pc)) with
      | Next -> go (pc + 1) (fuel - 1)
      | Goto t -> go t (fuel - 1)
      | Trapped _ -> Alcotest.fail "unexpected trap"
    end
  in
  go 0 10_000;
  (Array.sub regs 8 9, guest)

let prop_opt_preserves =
  QCheck.Test.make ~name:"optimizer preserves semantics" ~count:1000 arb_body
    (fun items ->
      run_body items = run_body (through (Opt.run_all ~live_out) items))

let prop_sched_preserves =
  QCheck.Test.make ~name:"scheduler preserves semantics" ~count:1000 arb_body
    (fun items -> run_body items = run_body (through Sched.hoist_loads items))

let prop_opt_then_sched_preserves =
  QCheck.Test.make ~name:"full pipeline preserves semantics" ~count:500
    arb_body
    (fun items ->
      run_body items
      = run_body
          (through Sched.hoist_loads (through (Opt.run_all ~live_out) items)))

let prop_alloc_removes_vregs =
  QCheck.Test.make ~name:"allocation leaves only hardware registers"
    ~count:500 arb_body
    (fun items ->
      code_of items
      |> Array.for_all (fun insn ->
             List.for_all
               (fun r -> r < Hinsn.first_vreg)
               (Hinsn.defs insn @ Hinsn.uses insn)))

(* One sweep of copy propagation reaches its fixpoint, forwarded loads
   included: a copy that forwarding makes propagates in the same sweep,
   so [Opt.run_all] runs the pass once. *)
let prop_copy_propagate_idempotent =
  QCheck.Test.make ~name:"copy propagation is idempotent" ~count:1000 arb_body
    (fun items ->
      let once =
        through Opt.copy_propagate (through Opt.constant_fold items)
      in
      through Opt.copy_propagate once = once)

(* [Opt.run_all] fuses its four passes into two sweeps; item for item it
   must equal the passes run one after another, each on the previous
   one's output. *)
let prop_run_all_is_the_passes_in_order =
  QCheck.Test.make ~name:"run_all = the four passes in order" ~count:1000
    arb_body
    (fun items ->
      through (Opt.run_all ~live_out) items
      = (items
         |> through Opt.constant_fold
         |> through Opt.copy_propagate
         |> through (Opt.eliminate_dead ~live_out)
         |> through (Opt.eliminate_dead ~live_out)))

let prop_opt_never_grows =
  QCheck.Test.make ~name:"optimizer never grows the body" ~count:500 arb_body
    (fun items ->
      insn_count (through (Opt.run_all ~live_out) items)
      <= insn_count items)

(* --- Scheduler order against the pairwise oracle ---------------------- *)

(* The scheduler as first written: every pair of instructions in a segment
   compared for RAW/WAR/WAW conflicts, the ready set rescanned per pick.
   Sched must emit exactly this order. *)
module Pairwise = struct
  let intersects a b = List.exists (fun r -> r <> Hinsn.r0 && List.mem r b) a

  let depends earlier later =
    let de = Hinsn.defs earlier and ue = Hinsn.uses earlier in
    let dl = Hinsn.defs later and ul = Hinsn.uses later in
    intersects de ul || intersects ue dl || intersects de dl

  let is_barrier : Hinsn.t -> bool = function
    | Store _ | Branch _ | Jump _ | Trap _ | Mul64 _ | Div64 _ -> true
    | _ -> false

  let is_load : Hinsn.t -> bool = function Load _ -> true | _ -> false

  let schedule_segment insns =
    let n = Array.length insns in
    if n <= 2 then Array.to_list insns
    else begin
      let preds = Array.make n [] in
      for j = 1 to n - 1 do
        for i = 0 to j - 1 do
          if depends insns.(i) insns.(j) then preds.(j) <- i :: preds.(j)
        done
      done;
      let feeds_load = Array.make n false in
      for j = n - 1 downto 0 do
        if is_load insns.(j) || feeds_load.(j) then
          List.iter (fun i -> feeds_load.(i) <- true) preds.(j)
      done;
      let scheduled = Array.make n false in
      List.init n (fun _ ->
          let best = ref (-1) and best_rank = ref 3 in
          for j = 0 to n - 1 do
            if (not scheduled.(j))
               && List.for_all (fun i -> scheduled.(i)) preds.(j)
            then begin
              let rank =
                if is_load insns.(j) then 0
                else if feeds_load.(j) then 1
                else 2
              in
              if rank < !best_rank then begin
                best_rank := rank;
                best := j
              end
            end
          done;
          scheduled.(!best) <- true;
          insns.(!best))
    end

  let hoist_loads items =
    let out = ref [] and segment = ref [] in
    let flush () =
      let scheduled = schedule_segment (Array.of_list (List.rev !segment)) in
      out := List.rev_append (List.map (fun i -> Lblock.I i) scheduled) !out;
      segment := []
    in
    List.iter
      (fun (item : Lblock.item) ->
        match item with
        | I insn when not (is_barrier insn) -> segment := insn :: !segment
        | _ ->
          flush ();
          out := item :: !out)
      items;
    flush ();
    List.rev !out
end

(* Dependence-dense segments: few registers, r0 as source and
   destination, Ins (a def that reads its destination), loads, and the
   macro-ops' implicit eax/edx defs next to explicit uses of r8/r10. *)
let gen_sched_items =
  let open QCheck.Gen in
  let reg = oneofl [ Hinsn.r0; 8; 9; 10; 11; 32; 33; 34; 35; 36 ] in
  let insn : Hinsn.t t =
    frequency
      [ (4, map3 (fun rd rs rt -> Hinsn.Alu3 (Add, rd, rs, rt)) reg reg reg);
        (2, map2 (fun rd rs -> Hinsn.Alui (Ori, rd, rs, 3)) reg reg);
        (5, map2 (fun rd base -> Hinsn.Load (W32, rd, base, 4)) reg reg);
        (2, map2 (fun rd rs -> Hinsn.Ins (rd, rs, 8, 8)) reg reg);
        (1, map (fun rd -> Hinsn.Lui (rd, 1)) reg);
        (1, map (fun rs -> Hinsn.Mul64 rs) reg);
        (1, map (fun rs -> Hinsn.Div64 { divisor = rs; signed = true }) reg);
        (1, map2 (fun rv base -> Hinsn.Store (W32, rv, base, 0)) reg reg) ]
  in
  let item =
    frequency
      [ (20, map (fun i -> Lblock.I i) insn);
        (1, map (fun l -> Lblock.L l) nat) ]
  in
  list_size (int_range 0 40) item

let prop_sched_order =
  QCheck.Test.make ~name:"scheduler order = pairwise scheduler" ~count:2000
    (QCheck.make
       ~print:(fun items ->
         Format.asprintf "%a" Lblock.pp (Lblock.of_list items))
       gen_sched_items)
    (fun items -> through Sched.hoist_loads items = Pairwise.hoist_loads items)

(* --- Targeted optimizer behaviour ------------------------------------ *)

let test_constant_folding () =
  let items =
    [ Lblock.I (Hinsn.Alui (Ori, 32, 0, 10));
      Lblock.I (Hinsn.Alui (Ori, 33, 0, 20));
      Lblock.I (Hinsn.Alu3 (Add, 34, 32, 33));
      Lblock.I (Hinsn.Alu3 (Add, 8, 34, 0)) ]
  in
  let out = through (Opt.run_all ~live_out) items in
  (* The adds fold to a constant; dead intermediate loads disappear. *)
  let n = insn_count out in
  if n > 2 then
    Alcotest.failf "expected <= 2 insns after folding, got %d:\n%s" n
      (String.concat "\n" (List.map Hinsn.to_string (insns out)));
  Alcotest.(check (array int)) "value" (fst (run_body items))
    (fst (run_body out))

let test_dead_code_removed () =
  let items =
    [ Lblock.I (Hinsn.Alui (Ori, 32, 0, 1)); (* dead: never used *)
      Lblock.I (Hinsn.Alui (Ori, 8, 0, 2)) ]
  in
  let out = through (Opt.run_all ~live_out) items in
  Alcotest.(check int) "dead def removed" 1 (insn_count out)

let test_load_forwarding () =
  let items =
    [ Lblock.I (Hinsn.Load (W32, 32, 9, 4));
      Lblock.I (Hinsn.Load (W32, 33, 9, 4)); (* same address *)
      Lblock.I (Hinsn.Alu3 (Add, 8, 32, 33)) ]
  in
  let out = through (Opt.run_all ~live_out) items in
  let loads =
    List.length
      (List.filter
         (function Hinsn.Load _ -> true | _ -> false)
         (insns out))
  in
  Alcotest.(check int) "second load forwarded" 1 loads

(* The first load is forwarded from the store and becomes a copy of
   r10, so the third reads 4(r10) like the second and is forwarded from
   it in the same sweep. *)
let test_forward_through_forwarded_copy () =
  let items =
    List.map
      (fun i -> Lblock.I i)
      Hinsn.
        [ Store (W32, 10, 9, 0);
          Load (W32, 32, 9, 0);
          Load (W32, 33, 10, 4);
          Load (W32, 34, 32, 4);
          Alu3 (Add, 8, 33, 34) ]
  in
  let out = through (Opt.run_all ~live_out) items in
  let loads =
    List.length
      (List.filter
         (function Hinsn.Load _ -> true | _ -> false)
         (insns out))
  in
  Alcotest.(check int) "one load left" 1 loads;
  Alcotest.(check (pair (array int) (array int)))
    "value" (run_body items) (run_body out)

let test_loads_never_deleted () =
  (* A dead load must survive (it can fault). *)
  let items = [ Lblock.I (Hinsn.Load (W32, 32, 9, 0)) ] in
  let out = through (Opt.run_all ~live_out) items in
  Alcotest.(check int) "dead load kept" 1 (insn_count out)

let test_linearize_rejects_backward () =
  let items =
    [ Lblock.L 0;
      Lblock.I Hinsn.Nop;
      Lblock.I (Hinsn.Jump 0) ]
  in
  match Lblock.linearize (Lblock.of_list items) with
  | _ -> Alcotest.fail "backward branch accepted"
  | exception Lblock.Malformed _ -> ()

(* A forward label resolves to the index of the next instruction; a label
   at the block end resolves to [length], the fall-through. Any other
   target would make a translated block loop or never fall through. *)
let test_linearize_forward_targets () =
  let items =
    [ Lblock.I Hinsn.Nop;
      Lblock.I (Hinsn.Branch (Beq, 0, 0, 1));
      Lblock.I Hinsn.Nop;
      Lblock.L 1;
      Lblock.I Hinsn.Nop;
      Lblock.I (Hinsn.Jump 2);
      Lblock.L 2 ]
  in
  let code = Lblock.linearize (Lblock.of_list items) in
  Alcotest.(check int) "length" 5 (Array.length code);
  (match code.(1) with
   | Hinsn.Branch (Beq, 0, 0, t) -> Alcotest.(check int) "branch target" 3 t
   | _ -> Alcotest.fail "branch moved");
  match code.(4) with
  | Hinsn.Jump t -> Alcotest.(check int) "block-end target" 5 t
  | _ -> Alcotest.fail "jump moved"

let test_spill_pressure () =
  (* More simultaneously-live values than hardware temporaries: forces
     spilling, which must still compute the right answer. *)
  let n = 24 in
  let defs =
    List.init n (fun i -> Lblock.I (Hinsn.Alui (Ori, 32 + i, 0, i + 1)))
  in
  let sum =
    List.concat
      (List.init n (fun i ->
           [ Lblock.I
               (Hinsn.Alu3 (Add, 8, (if i = 0 then 0 else 8), 32 + i)) ]))
  in
  let items = defs @ sum in
  let out, _ = run_body items in
  Alcotest.(check int) "sum via spills" (n * (n + 1) / 2) out.(0)

let suite =
  [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "dead code removed" `Quick test_dead_code_removed;
    Alcotest.test_case "redundant load forwarded" `Quick test_load_forwarding;
    Alcotest.test_case "load forwarded through a forwarded copy" `Quick
      test_forward_through_forwarded_copy;
    Alcotest.test_case "dead loads survive" `Quick test_loads_never_deleted;
    Alcotest.test_case "linearize rejects backward branches" `Quick
      test_linearize_rejects_backward;
    Alcotest.test_case "linearize resolves forward targets" `Quick
      test_linearize_forward_targets;
    Alcotest.test_case "register spilling" `Quick test_spill_pressure ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_opt_preserves; prop_sched_preserves; prop_sched_order;
        prop_opt_then_sched_preserves; prop_alloc_removes_vregs;
        prop_copy_propagate_idempotent; prop_opt_never_grows;
        prop_run_all_is_the_passes_in_order ]
