(* Netlist identity of every Fig. 1 design point: the Digest of
   [Hw.Verilog.emit] for each sweep point of each registered kernel (the
   100 idct points, fir8 and matmul8), keyed "kernel:Tool/label".  The
   builder and every frontend feed these, so any change in node order,
   port order or structure shows here; a change that moves a digest must
   say why. *)

let pinned =
  [
    ("idct:Vivado/initial", "6f29cba8201c9c223adae9b5f7c797b5");
    ("idct:Vivado/1 row + 8 col units", "877ec81719c7ab0592ff75c35c9bb85d");
    ("idct:Vivado/optimized", "243e9b090c22788449d29cb4cbd65d44");
    ("idct:Chisel/initial", "cf715668b3e3ac5c56f3792def905f81");
    ("idct:Chisel/1 row + 8 col units", "641dcf2e40388aa7e17903903caaa524");
    ("idct:Chisel/optimized", "f4bb2ccf1cc0ae1e2e68c0a831763bb9");
    ("idct:BSC/initial", "722412b6756b32818f7d74178dcee81e");
    ("idct:BSC/optimized", "d0be666944d88b7404a2ec0a3cb4dc01");
    ("idct:BSC/optimized/urgency=declared mux=priority aggressive=false effort=0", "d0be666944d88b7404a2ec0a3cb4dc01");
    ("idct:BSC/optimized/urgency=declared mux=priority aggressive=false effort=1", "d0be666944d88b7404a2ec0a3cb4dc01");
    ("idct:BSC/optimized/urgency=declared mux=priority aggressive=false effort=2", "d0be666944d88b7404a2ec0a3cb4dc01");
    ("idct:BSC/optimized/urgency=declared mux=priority aggressive=true effort=0", "9bd7999fde92dcf15a902f48e9f5b6df");
    ("idct:BSC/optimized/urgency=declared mux=priority aggressive=true effort=1", "9bd7999fde92dcf15a902f48e9f5b6df");
    ("idct:BSC/optimized/urgency=declared mux=priority aggressive=true effort=2", "9bd7999fde92dcf15a902f48e9f5b6df");
    ("idct:BSC/optimized/urgency=declared mux=one-hot aggressive=false effort=0", "e83d6abee13f82bf5ebfd917e3cfbfb2");
    ("idct:BSC/optimized/urgency=declared mux=one-hot aggressive=false effort=1", "e83d6abee13f82bf5ebfd917e3cfbfb2");
    ("idct:BSC/optimized/urgency=declared mux=one-hot aggressive=false effort=2", "e83d6abee13f82bf5ebfd917e3cfbfb2");
    ("idct:BSC/optimized/urgency=declared mux=one-hot aggressive=true effort=0", "2a2e3bbb714dfd18295467603fc045fa");
    ("idct:BSC/optimized/urgency=declared mux=one-hot aggressive=true effort=1", "2a2e3bbb714dfd18295467603fc045fa");
    ("idct:BSC/optimized/urgency=declared mux=one-hot aggressive=true effort=2", "2a2e3bbb714dfd18295467603fc045fa");
    ("idct:BSC/optimized/urgency=reversed mux=priority aggressive=false effort=0", "911b3d938ce98980aae7bbafb4c7573a");
    ("idct:BSC/optimized/urgency=reversed mux=priority aggressive=false effort=1", "911b3d938ce98980aae7bbafb4c7573a");
    ("idct:BSC/optimized/urgency=reversed mux=priority aggressive=false effort=2", "911b3d938ce98980aae7bbafb4c7573a");
    ("idct:BSC/optimized/urgency=reversed mux=priority aggressive=true effort=0", "59ac9d2f6f347657b43357efef7f7944");
    ("idct:BSC/optimized/urgency=reversed mux=priority aggressive=true effort=1", "59ac9d2f6f347657b43357efef7f7944");
    ("idct:BSC/optimized/urgency=reversed mux=priority aggressive=true effort=2", "59ac9d2f6f347657b43357efef7f7944");
    ("idct:BSC/optimized/urgency=reversed mux=one-hot aggressive=false effort=0", "b51b96fceabf17372144949f53590223");
    ("idct:BSC/optimized/urgency=reversed mux=one-hot aggressive=false effort=1", "b51b96fceabf17372144949f53590223");
    ("idct:BSC/optimized/urgency=reversed mux=one-hot aggressive=false effort=2", "b51b96fceabf17372144949f53590223");
    ("idct:BSC/optimized/urgency=reversed mux=one-hot aggressive=true effort=0", "a8b1cdf8b04153df4697bd96756adfbd");
    ("idct:BSC/optimized/urgency=reversed mux=one-hot aggressive=true effort=1", "a8b1cdf8b04153df4697bd96756adfbd");
    ("idct:BSC/optimized/urgency=reversed mux=one-hot aggressive=true effort=2", "a8b1cdf8b04153df4697bd96756adfbd");
    ("idct:XLS/initial", "23b12285dc1e94c712b2f4aabc9573b3");
    ("idct:XLS/stages=1", "a038c54b522243ef6e71771f1a100624");
    ("idct:XLS/stages=2", "0b57f30e815053ed56d7ed37b310a0dc");
    ("idct:XLS/stages=3", "786c93f7f2cabab805062e17d0d4030e");
    ("idct:XLS/stages=4", "775f736ed05433ebbf8d8e70e12a32c5");
    ("idct:XLS/stages=5", "aa767176e7abf8eac911bf8c856c8c86");
    ("idct:XLS/stages=6", "46d642188fcbd21d3df4a8c614473d61");
    ("idct:XLS/stages=7", "c5aed3b0738902e9a55c71b27a407852");
    ("idct:XLS/stages=8", "46cdae47aef962edad76025de4068664");
    ("idct:XLS/stages=9", "810c422747fba9acac55f234d7d9f67a");
    ("idct:XLS/stages=10", "de0408e53bb43b6dd26cad0c82303b40");
    ("idct:XLS/stages=11", "3a189310f4c4f39e6f3d3182f3b8a576");
    ("idct:XLS/stages=12", "296d19c71ffae1a73106b0d0bb6d503e");
    ("idct:XLS/stages=13", "d795c4f5ba6b3876d0ede2777a305e0b");
    ("idct:XLS/stages=14", "b208553ab08ba4709d450aee4aa93311");
    ("idct:XLS/stages=15", "2331a921815a33e8578844c228e64feb");
    ("idct:XLS/stages=16", "564ad43668f4ee69521ae44d73947855");
    ("idct:XLS/stages=17", "5d373afba9f9bd15a43dadec05a5a1eb");
    ("idct:XLS/stages=18", "d272e9e4f6c48ed0fec22a1cec3f8aba");
    ("idct:MaxCompiler/initial", "a4f513aca1ba5aef0f783d29e7b2650d");
    ("idct:MaxCompiler/optimized", "14c4d96db36a34c8bbdb6a5aa2e2ff5b");
    ("idct:Bambu/BAMBU chaining=0", "464e824cc3311e2539117ec7b6e39bea");
    ("idct:Bambu/BAMBU chaining=1", "bef6de0759c872931b85ed872391f15d");
    ("idct:Bambu/BAMBU chaining=2", "d461523999b312b456e0b643cd3bc602");
    ("idct:Bambu/BAMBU +speculative-sdc chaining=0", "bf4ddf0742606a358267067610c4c410");
    ("idct:Bambu/BAMBU +speculative-sdc chaining=1", "5a2ae2a01192378c9aa8abfe82815b85");
    ("idct:Bambu/BAMBU +speculative-sdc chaining=2", "9e7a8b1c50ae9d9f6aafc3949cfa3ef6");
    ("idct:Bambu/AREA chaining=0", "415d884c63e7122c7ba9607a604bc37f");
    ("idct:Bambu/AREA chaining=1", "72b22673995cfa0ecfa66634152f3823");
    ("idct:Bambu/AREA chaining=2", "e481220a2cfe72b0b8cb67a0c01457e5");
    ("idct:Bambu/AREA +speculative-sdc chaining=0", "1d35a7eff93da03ed750ff92a99b9e0f");
    ("idct:Bambu/AREA +speculative-sdc chaining=1", "4330241c70dc295f3221c4f90b8cac78");
    ("idct:Bambu/AREA +speculative-sdc chaining=2", "164ccb56826ea25644ed296aea14b876");
    ("idct:Bambu/AREA-MP chaining=0", "3ad844940c27cd9fa52044a8bdfee890");
    ("idct:Bambu/AREA-MP chaining=1", "76640ef9fe85620734e5332f2c0f2b05");
    ("idct:Bambu/AREA-MP chaining=2", "1978b5732afce706f954be89fe09ce62");
    ("idct:Bambu/AREA-MP +speculative-sdc chaining=0", "55e53d1b1d62ff097170d2148b1cd374");
    ("idct:Bambu/AREA-MP +speculative-sdc chaining=1", "b31ea9385a5ad04ef8c58e5394551c5b");
    ("idct:Bambu/AREA-MP +speculative-sdc chaining=2", "05added734afa7edf3e1bb7fdcaeb1c1");
    ("idct:Bambu/BALANCED chaining=0", "e0682813e7f84f67dd7c1b9f6fd1bbe0");
    ("idct:Bambu/BALANCED chaining=1", "3492615db290262890080f0ed9e63aed");
    ("idct:Bambu/BALANCED chaining=2", "98284f2860fa8504d5a31407064b3524");
    ("idct:Bambu/BALANCED +speculative-sdc chaining=0", "2e8ddf36c8dbfe9774b47d5c17ad7ba0");
    ("idct:Bambu/BALANCED +speculative-sdc chaining=1", "72ec687203a80d4479bdaeea7b36e6c6");
    ("idct:Bambu/BALANCED +speculative-sdc chaining=2", "14bd8799c5dec9d7673ee728180622ac");
    ("idct:Bambu/BALANCED-MP chaining=0", "34b79a824a4fb7baf225cd029aee9703");
    ("idct:Bambu/BALANCED-MP chaining=1", "8a9623d4a322a9547ce58acd8b233599");
    ("idct:Bambu/BALANCED-MP chaining=2", "7a53e43c942487d3ae0f9828dcf82db3");
    ("idct:Bambu/BALANCED-MP +speculative-sdc chaining=0", "34c05e0e231c42c51f3b8f987a16a585");
    ("idct:Bambu/BALANCED-MP +speculative-sdc chaining=1", "7734aa191cf0f37a136956911e2ebdfe");
    ("idct:Bambu/BALANCED-MP +speculative-sdc chaining=2", "08ca45bb28bfa5ef6187b04e25e2e388");
    ("idct:Bambu/PERFORMANCE chaining=0", "f1459deb1a4b7b2d80715d39abde4b68");
    ("idct:Bambu/PERFORMANCE chaining=1", "032ab417ceb934a356a17fd6fa9f7d89");
    ("idct:Bambu/PERFORMANCE chaining=2", "a66258b693b2e8ad1ba6cabf3babf873");
    ("idct:Bambu/PERFORMANCE +speculative-sdc chaining=0", "61c690a8d2076b8ce5f3836300a55a51");
    ("idct:Bambu/PERFORMANCE +speculative-sdc chaining=1", "da2404e3cafc3f85ef6565e92db19db4");
    ("idct:Bambu/PERFORMANCE +speculative-sdc chaining=2", "8b013317807fd6c59f2b58878bcb1698");
    ("idct:Bambu/PERFORMANCE-MP chaining=0", "ea0b7817672632a0ff2952fbf9320226");
    ("idct:Bambu/PERFORMANCE-MP chaining=1", "a03db552aaec819aaf5474e00921b391");
    ("idct:Bambu/PERFORMANCE-MP chaining=2", "85977686626c845ac84245d80e3508de");
    ("idct:Bambu/PERFORMANCE-MP +speculative-sdc chaining=0", "920bc2f73dd87f16381fde5f18257f56");
    ("idct:Bambu/PERFORMANCE-MP +speculative-sdc chaining=1", "f00a7616fe5ee6a0d4fae33d90b00ecb");
    ("idct:Bambu/PERFORMANCE-MP +speculative-sdc chaining=2", "315dfa32ecad138597aa719432de2a7c");
    ("idct:Vivado HLS/push-button", "90a28030ec4b1c07e532c8c3ae8a2cba");
    ("idct:Vivado HLS/INLINE", "0e64d71bcf6764f4c9fa79baa4f09705");
    ("idct:Vivado HLS/INLINE+ARRAY_PARTITION", "1c512e2a2f2239df7f7dfb78db94df76");
    ("idct:Vivado HLS/INLINE+ARRAY_PARTITION+PIPELINE_II8", "fcd1e49819932efd7b7e78e5025848b3");
    ("idct:Vivado HLS/INLINE+ARRAY_PARTITION+PIPELINE_II1", "9a4f58b1019a948d6a1edc6aecb3dca3");
    ("fir8:Chisel/fir", "fea504d9203cb9cde6cd067a6ba4d337");
    ("fir8:XLS/fir", "4dacd92cdde21956b71a2dfb6ee26489");
    ("fir8:Bambu/fir", "25600b15dac450268ede9c6ae7162633");
    ("matmul8:Chisel/matmul", "c29dfca8fe958e0f2ed8b4656cc185a6");
    ("matmul8:XLS/matmul", "cf22729e64fb0befb43d346817e55cac");
    ("matmul8:Bambu/matmul", "6e2311c6d7464e0f6e2176a2d6de0d37");
  ]

let emitted (d : Core.Design.t) =
  let c =
    match d.Core.Design.impl with
    | Core.Design.Stream c -> Core.Design.force c
    | Core.Design.Pcie p ->
        (Core.Design.force p.Core.Design.system).Maxj.Manager.kernel
  in
  Hw.Verilog.emit c

let test_fig1_netlists_pinned () =
  let designs =
    List.concat_map
      (fun k ->
        List.map
          (fun d -> (Core.Kernel.name k ^ ":" ^ Core.Flow.span_key d, d))
          (Core.Kernel.all_designs k))
      Core.Kernel.all
  in
  Alcotest.(check (list string))
    "every design point pinned, in order" (List.map fst pinned)
    (List.map fst designs);
  List.iter2
    (fun (key, d) (_, digest) ->
      Alcotest.(check string)
        key digest
        (Digest.to_hex (Digest.string (emitted d))))
    designs pinned

let () =
  Alcotest.run "pins"
    [
      ( "netlists",
        [
          Alcotest.test_case "fig1 netlists pinned" `Quick
            test_fig1_netlists_pinned;
        ] );
    ]
