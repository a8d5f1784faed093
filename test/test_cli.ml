(* The vat_run and vat_asm command lines must fail cleanly on operator
   error: a malformed, truncated or unloadable guest image, a source the
   assembler rejects, an unknown benchmark, or a bad --fault-kinds list
   each produce a one-line diagnostic and a nonzero exit — never a
   backtrace. Runs the real executables (dune places them in ../bin
   relative to the test cwd). *)

let exe = Filename.concat ".." (Filename.concat "bin" "vat_run.exe")
let asm_exe = Filename.concat ".." (Filename.concat "bin" "vat_asm.exe")

(* Run [exe args], capturing stdout+stderr; returns (exit_code, output). *)
let run_exe exe args =
  let out = Filename.temp_file "vat_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

let run_cli = run_exe exe
let run_asm = run_exe asm_exe

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let check_clean_failure name (code, text) =
  Alcotest.(check bool) (name ^ ": nonzero exit") true (code <> 0);
  Alcotest.(check bool) (name ^ ": diagnostic printed") true
    (String.length (String.trim text) > 0);
  Alcotest.(check bool)
    (name ^ ": no backtrace leaked: " ^ text)
    false
    (let has needle =
       let nl = String.length needle and tl = String.length text in
       let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
       go 0
     in
     has "Raised at" || has "Called from" || has "Fatal error: exception")

let test_exe_present () =
  Alcotest.(check bool) ("executable exists at " ^ exe) true
    (Sys.file_exists exe)

let test_list () =
  let code, text = run_cli "--list" in
  Alcotest.(check int) "exit 0" 0 code;
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions gzip" true (has "gzip")

let test_unknown_benchmark () =
  check_clean_failure "unknown benchmark" (run_cli "no-such-benchmark")

let test_garbage_image () =
  let path = "garbage.vbin" in
  write_file path "this is not a VAT0 image at all................";
  let r = run_cli path in
  Sys.remove path;
  check_clean_failure "garbage image" r

let test_truncated_image () =
  (* Correct magic, then nothing: the header read must fail cleanly. *)
  let path = "truncated.vbin" in
  write_file path "VAT0\x10";
  let r = run_cli path in
  Sys.remove path;
  check_clean_failure "truncated image" r

let test_empty_image () =
  let path = "empty.vbin" in
  write_file path "";
  let r = run_cli path in
  Sys.remove path;
  check_clean_failure "empty image" r

let test_bad_fault_kinds () =
  let code, text = run_cli "gzip --faults 1 --fault-kinds cosmic-ray" in
  check_clean_failure "bad fault class" (code, text);
  Alcotest.(check bool) "names the bad class" true
    (let has needle =
       let nl = String.length needle and tl = String.length text in
       let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
       go 0
     in
     has "cosmic-ray")

(* --- Exit-code contract ------------------------------------------------
   0 = simulation completed, 2 = guest fault, 3 = halted at a checkpoint,
   124 = usage error, 125 = internal error (see the README). These pins
   keep the codes stable for scripts and CI. *)

let save_image path items =
  Vat_guest.Image.save path (Vat_guest.Image.of_asm ~origin:0x1000 items)

(* A guest that divides by zero: the simulation itself completes its job
   (reporting the guest fault), but scripts need to see it failed. *)
let div0_guest =
  let open Vat_guest.Asm.Dsl in
  [ label "start"; mov (r eax) (i 7); mov (r ecx) (i 0); div (r ecx) ]

(* A guest that spins long enough to cross several checkpoint intervals
   before exiting cleanly. *)
let spin_guest =
  let open Vat_guest.Asm.Dsl in
  [ label "start";
    mov (r ecx) (i 20_000);
    label "spin";
    dec (r ecx);
    jne "spin";
    mov (r ebx) (i 0);
    mov (r eax) (i Vat_guest.Syscall.sys_exit);
    int_ Vat_guest.Syscall.vector ]

let check_exit name expected args =
  let code, text = run_cli args in
  Alcotest.(check int) (name ^ ": exit code (output: " ^ String.trim text ^ ")")
    expected code;
  text

let test_exit_codes_usage () =
  ignore (check_exit "unknown benchmark" 124 "no-such-benchmark");
  ignore (check_exit "unknown flag" 124 "--no-such-flag");
  ignore
    (check_exit "zero checkpoint interval" 124
       "gzip --checkpoint x.snap --checkpoint-every 0");
  ignore (check_exit "halt-at without checkpoint" 124 "gzip --halt-at 5");
  ignore (check_exit "checkpoint without a single bench" 124
            "--checkpoint x.snap")

let test_exit_code_guest_fault () =
  let img = "div0.vbin" in
  save_image img div0_guest;
  let text = check_exit "guest fault" 2 img in
  Sys.remove img;
  Alcotest.(check bool) "reports the fault" true
    (let has needle =
       let nl = String.length needle and tl = String.length text in
       let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
       go 0
     in
     has "fault")

let test_exit_code_corrupt_snapshot () =
  let img = "spin.vbin" in
  save_image img spin_guest;
  let snap = "corrupt.snap" in
  write_file snap "definitely not a snapshot";
  let r = run_cli (img ^ " --checkpoint " ^ snap) in
  Sys.remove img;
  Sys.remove snap;
  Alcotest.(check int) "corrupt snapshot is a usage error" 124 (fst r);
  check_clean_failure "corrupt snapshot" r

(* A --checkpoint path that cannot be read or written is the operator's
   mistake: a usage error whose one-line diagnostic names the file. *)
let check_bad_checkpoint_path name path args =
  let img = "spin.vbin" in
  save_image img spin_guest;
  let r = run_cli (img ^ " --checkpoint " ^ path ^ args) in
  Sys.remove img;
  Alcotest.(check int) (name ^ ": usage error") 124 (fst r);
  check_clean_failure name r;
  let text = snd r in
  Alcotest.(check bool) (name ^ ": names the file: " ^ text) true
    (let nl = String.length path and tl = String.length text in
     let rec go i = i + nl <= tl && (String.sub text i nl = path || go (i + 1)) in
     go 0)

let test_exit_code_checkpoint_is_directory () =
  let dir = "snapdir" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  check_bad_checkpoint_path "directory as snapshot" dir "";
  Sys.rmdir dir

let test_exit_code_checkpoint_unwritable () =
  check_bad_checkpoint_path "unwritable snapshot path" "no-such-dir/x.snap"
    " --checkpoint-every 10000 --halt-at 15000"

(* The line "name outcome insns cycles slowdown" summarises the run;
   a resumed run must reproduce it bit-for-bit. *)
let result_line text =
  match
    List.find_opt
      (fun line ->
        let has needle =
          let nl = String.length needle and tl = String.length line in
          let rec go i =
            i + nl <= tl && (String.sub line i nl = needle || go (i + 1))
          in
          go 0
        in
        has "guest insns")
      (String.split_on_char '\n' text)
  with
  | Some l -> l
  | None -> Alcotest.fail ("no result line in: " ^ text)

let test_exit_code_halt_and_resume () =
  let img = "spin.vbin" in
  save_image img spin_guest;
  let snap = "spin.snap" in
  if Sys.file_exists snap then Sys.remove snap;
  let straight = check_exit "straight run" 0 img in
  let halted =
    check_exit "halted at checkpoint" 3
      (img ^ " --checkpoint " ^ snap
       ^ " --checkpoint-every 10000 --halt-at 15000")
  in
  ignore halted;
  Alcotest.(check bool) "snapshot file saved" true (Sys.file_exists snap);
  let resumed = check_exit "resumed run" 0 (img ^ " --checkpoint " ^ snap) in
  Alcotest.(check bool) "spent snapshot removed" false (Sys.file_exists snap);
  Sys.remove img;
  Alcotest.(check string) "resumed result identical to straight run"
    (result_line straight) (result_line resumed)

(* --- Untrusted guest inputs ---------------------------------------------
   An image that cannot be loaded, or a source the assembler would reject,
   is the operator's error: vat_run reports a bad image (exit 124) and
   vat_asm a one-line diagnostic (exit 1), never an uncaught exception. *)

let contains text needle =
  let nl = String.length needle and tl = String.length text in
  let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let raw_image ~origin body =
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF)) in
  "VAT0" ^ u32 origin ^ u32 origin ^ body

let check_unloadable_image name bytes =
  let path = name ^ ".vbin" in
  write_file path bytes;
  let run = run_cli path and asm = run_asm ("run " ^ path) in
  Sys.remove path;
  Alcotest.(check int) (name ^ ": vat_run usage error") 124 (fst run);
  check_clean_failure (name ^ " (vat_run)") run;
  Alcotest.(check bool)
    (name ^ ": reported as a bad image: " ^ snd run)
    true
    (contains (snd run) ("bad guest image " ^ path ^ ": "));
  Alcotest.(check int) (name ^ ": vat_asm run exit") 1 (fst asm);
  check_clean_failure (name ^ " (vat_asm run)") asm

let test_image_outside_memory () =
  check_unloadable_image "high_origin"
    (raw_image ~origin:0xFFFFFF00 (String.make 16 '\x90'))

let test_image_larger_than_memory () =
  check_unloadable_image "oversized"
    (raw_image ~origin:0x1000 (String.make (5 * 1024 * 1024) '\x90'))

let check_rejected_source name source ~line =
  let path = name ^ ".s" in
  write_file path source;
  let r = run_asm ("build " ^ path ^ " -o " ^ name ^ ".vbin") in
  Sys.remove path;
  Alcotest.(check bool) (name ^ ": no image written") false
    (Sys.file_exists (name ^ ".vbin"));
  Alcotest.(check int) (name ^ ": exit") 1 (fst r);
  check_clean_failure name r;
  let where = Printf.sprintf "%s: line %d: " path line in
  Alcotest.(check bool) (name ^ ": names " ^ where ^ " in: " ^ snd r) true
    (contains (snd r) where)

let test_asm_rejects () =
  check_rejected_source "undefined_label" "start:\n  jmp nowhere\n" ~line:2;
  check_rejected_source "imm_destination" "start:\n  mov 5, eax\n" ~line:2;
  check_rejected_source "imm_byte_source" "start:\n  nop\n  movzx eax, 5\n"
    ~line:3

(* Bytes the encoder cannot produce ("mov 1, 2", an immediate
   destination) that the branch skips. The translator decodes them ahead
   of execution; that must not change the run. *)
let skip_source =
  "start:\n\
  \    cmp eax, eax\n\
  \    je skip\n\
  \    .byte 1, 1, 1, 0, 0, 0, 1, 2, 0, 0, 0\n\
   skip:\n\
  \    mov eax, 1\n\
  \    mov ebx, 7\n\
  \    int 0x80\n"

(* The interpreter and the full virtual architecture agree on each
   source's exit status ("exit N", the first two words) and on everything
   after the first line (the guest's output). Every example writes
   output; skip.s writes none. *)
let test_asm_run_agree () =
  let examples = Filename.concat ".." "examples" in
  let split (code, text) =
    let i = Option.value (String.index_opt text '\n') ~default:0 in
    let status =
      List.filteri (fun k _ -> k < 2) (String.split_on_char ' ' (String.sub text 0 i))
    in
    (code, String.concat " " status, String.sub text i (String.length text - i))
  in
  let agree ~writes src =
    let code_i, status_i, rest_i = split (run_asm ("run " ^ src)) in
    let code_v, status_v, rest_v = split (run_asm ("run --vm " ^ src)) in
    Alcotest.(check int) (src ^ ": interpreter exit") 0 code_i;
    Alcotest.(check int) (src ^ ": vm exit") 0 code_v;
    Alcotest.(check string) (src ^ ": same guest status") status_i status_v;
    Alcotest.(check bool) (src ^ ": guest output: " ^ rest_i) writes
      (contains rest_i "--- output ---");
    Alcotest.(check string) (src ^ ": same guest output") rest_i rest_v
  in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".s" then
        agree ~writes:true (Filename.concat examples f))
    (Sys.readdir examples);
  write_file "skip.s" skip_source;
  agree ~writes:false "skip.s";
  let built = run_asm "build skip.s -o skip.vbin" in
  Sys.remove "skip.s";
  Alcotest.(check int) "skip.s builds" 0 (fst built);
  let code, text = run_cli "skip.vbin" in
  Sys.remove "skip.vbin";
  Alcotest.(check int) ("vat_run skip.vbin exit: " ^ text) 0 code;
  Alcotest.(check bool) ("vat_run skip.vbin: " ^ text) true
    (contains text "exit 7")

let test_bad_config () =
  check_clean_failure "bad --translators"
    (run_cli "gzip --translators 99");
  check_clean_failure "negative --faults" (run_cli "gzip --faults -3")

let suite =
  [ Alcotest.test_case "executable built" `Quick test_exe_present;
    Alcotest.test_case "--list works" `Quick test_list;
    Alcotest.test_case "unknown benchmark fails cleanly" `Quick
      test_unknown_benchmark;
    Alcotest.test_case "garbage guest image fails cleanly" `Quick
      test_garbage_image;
    Alcotest.test_case "truncated guest image fails cleanly" `Quick
      test_truncated_image;
    Alcotest.test_case "empty guest image fails cleanly" `Quick
      test_empty_image;
    Alcotest.test_case "bad --fault-kinds fails cleanly" `Quick
      test_bad_fault_kinds;
    Alcotest.test_case "bad configuration fails cleanly" `Quick
      test_bad_config;
    Alcotest.test_case "image outside guest memory exits 124" `Quick
      test_image_outside_memory;
    Alcotest.test_case "image larger than guest memory exits 124" `Quick
      test_image_larger_than_memory;
    Alcotest.test_case "vat_asm build names the rejected line" `Quick
      test_asm_rejects;
    Alcotest.test_case "vat_asm run: interpreter and vm agree" `Quick
      test_asm_run_agree;
    Alcotest.test_case "usage errors exit 124" `Quick test_exit_codes_usage;
    Alcotest.test_case "guest fault exits 2" `Quick test_exit_code_guest_fault;
    Alcotest.test_case "corrupt snapshot exits 124" `Quick
      test_exit_code_corrupt_snapshot;
    Alcotest.test_case "directory as snapshot exits 124" `Quick
      test_exit_code_checkpoint_is_directory;
    Alcotest.test_case "unwritable snapshot path exits 124" `Quick
      test_exit_code_checkpoint_unwritable;
    Alcotest.test_case "halt exits 3, resume exits 0 with identical result"
      `Quick test_exit_code_halt_and_resume ]
