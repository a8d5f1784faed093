let () =
  Alcotest.run "vat"
    [ ("desim", Test_desim.suite);
      ("guest-flags", Test_flags.suite);
      ("guest-units", Test_guest_units.suite);
      ("guest-encoding", Test_encode.suite);
      ("text-assembler", Test_text_asm.suite);
      ("host-isa", Test_host.suite);
      ("ir-passes", Test_ir.suite);
      ("translator-units", Test_translate_units.suite);
      ("translator-golden", Test_golden_translate.suite);
      ("tiled-substrate", Test_tiled.suite);
      ("core-units", Test_core_units.suite);
      ("memory-system", Test_memsys.suite);
      ("morphing", Test_morph.suite);
      ("translator-equivalence", Test_equiv.suite);
      ("virtual-machine", Test_vm.suite);
      ("perf-determinism", Test_perf.suite);
      ("fabric", Test_fabric.suite);
      ("faults", Test_faults.suite);
      ("integrity", Test_integrity.suite);
      ("faultspec", Test_faultspec.suite);
      ("snapshot", Test_snapshot.suite);
      ("trace", Test_trace.suite);
      ("cli", Test_cli.suite);
      ("workloads", Test_workloads.suite) ]
