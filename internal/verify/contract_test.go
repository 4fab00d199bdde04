package verify

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
)

// xonly routes along dimension 0 and may take one dimension-1 hop only at
// injection: connected for some pairs, stuck in transit for the rest, so
// the certificate names the first stuck state the walk reaches.
type xonly struct{ topo topology.Geometry }

func (f *xonly) Name() string         { return "xonly-test" }
func (f *xonly) NumVCs() int          { return 1 }
func (f *xonly) Escape() routing.Func { return f }

func (f *xonly) Candidates(here, dst topology.Node, inLink topology.LinkID, _ int, out []routing.Candidate) []routing.Candidate {
	d := 0
	o := f.topo.OffsetAlong(here, dst, 0)
	if o == 0 {
		if inLink != topology.Invalid {
			return out
		}
		d, o = 1, f.topo.OffsetAlong(here, dst, 1)
	}
	dir := topology.Plus
	if o < 0 {
		dir = topology.Minus
	}
	if link, ok := f.topo.OutLink(here, d, dir); ok {
		out = append(out, routing.Candidate{Link: link, VC: 0})
	}
	return out
}

// TestCertificateContract pins the SHA-256 of every certificate's JSON: the
// whole experiment matrix, the rejected configurations with their
// counterexamples, recovery, a valid subrelation, a livelock state cycle, a
// stuck routing state and a faulted residual proof. The Detail strings embed
// CDG.Stats counts and the counterexamples follow adjacency and walk order,
// so prover optimisations must keep every byte; a pin that changes on
// purpose is a behaviour change and is recorded in CHANGES.md together with
// the new value.
func TestCertificateContract(t *testing.T) {
	type pinned struct {
		name string
		cert func() (*Certificate, error)
	}
	var cases []pinned
	for _, c := range experimentMatrix(t) {
		sp := c.spec()
		cases = append(cases, pinned{c.name(), func() (*Certificate, error) { return Certify(sp) }})
	}
	torus := topology.MustCube([]int{4, 4}, true)
	mesh := topology.MustCube([]int{4, 4}, false)
	ring := topology.MustCube([]int{4}, true)
	fullmesh := topology.MustFullMesh(8)
	nodateline := baseSpec(torus, "dor-nodateline", 1, protocol.Wormhole)
	recovery := nodateline
	recovery.RecoveryTimeout = 64
	faulted := baseSpec(torus, "duato", 3, protocol.CLRP)
	faulted.Faults = fault.NodeIsolating(torus, faulted.NumSwitches, 5).Channels
	explicit := func(sp Spec, kind protocol.Kind, fn routing.Func) func() (*Certificate, error) {
		return func() (*Certificate, error) { return certify(sp, kind, fn), nil }
	}
	cases = append(cases,
		pinned{"rejected dor-nodateline torus", func() (*Certificate, error) { return Certify(nodateline) }},
		pinned{"rejected vcfree-nolabel fullmesh", func() (*Certificate, error) {
			return Certify(baseSpec(fullmesh, "vcfree-nolabel", 1, protocol.Wormhole))
		}},
		pinned{"recovery dor-nodateline torus", func() (*Certificate, error) { return Certify(recovery) }},
		pinned{"subrelation xyyx mesh", explicit(Spec{Topo: mesh, NumVCs: 2}, protocol.Wormhole, &xyyx{topo: mesh})},
		pinned{"livelock pingpong ring", explicit(Spec{Topo: ring, NumVCs: 1}, protocol.Wormhole, &pingpong{topo: ring})},
		pinned{"stuck xonly mesh", explicit(Spec{Topo: mesh, NumVCs: 1}, protocol.Wormhole, &xonly{topo: mesh})},
		pinned{"residual duato torus node 5 isolated", func() (*Certificate, error) { return Certify(faulted) }},
	)

	seen := make(map[string]bool)
	for _, tc := range cases {
		if seen[tc.name] {
			t.Fatalf("duplicate case %q", tc.name)
		}
		seen[tc.name] = true
		cert, err := tc.cert()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		j, err := json.Marshal(cert)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("sha256:%x", sha256.Sum256(j))
		if want := certificatePins[tc.name]; got != want {
			t.Errorf("%s: certificate digest = %s, want %s\ncertificate: %s", tc.name, got, want, j)
		}
	}
	if len(seen) != len(certificatePins) {
		t.Errorf("%d cases, %d pins", len(seen), len(certificatePins))
	}
}

// certificatePins are the digests TestCertificateContract holds.
var certificatePins = map[string]string{
	"baseline 8-ary 2-cube (torus) duato w=3 wormhole k=2 rec=0":                 "sha256:8b194df86ba370bbaf67a3836a80c35ba50d3286cbdfb4a8fcccf87ff04eee49",
	"baseline-quick 4-ary 2-cube (torus) duato w=3 wormhole k=2 rec=0":           "sha256:d988bd06ad76479ec747efeb7479898618e76ead64d43b7f2ed59454a2d4dbb5",
	"baseline 8-ary 2-cube (torus) duato w=3 clrp k=2 rec=0":                     "sha256:219585eff70addbdb359461705c04fdfe8080d05b9549707a54247bdda31886b",
	"baseline-quick 4-ary 2-cube (torus) duato w=3 clrp k=2 rec=0":               "sha256:4908fd28ccd496cd14e360ee875df3c1e65a585970f598f0ab8ae415e6d7076b",
	"baseline 8-ary 2-cube (torus) duato w=3 carp k=2 rec=0":                     "sha256:2e6a9b61aebf39bbad9ae44ef2eb62d5ccd5b043474114dfd2b471c1e8f36e8e",
	"baseline-quick 4-ary 2-cube (torus) duato w=3 carp k=2 rec=0":               "sha256:13ead290523519845e467e23d496865a8c815c7958700729fdd546295a42a579",
	"baseline 8-ary 2-cube (torus) duato w=3 pcs k=2 rec=0":                      "sha256:5bd854bea12281cc0b43e68bd8dc65b03babb8da2fbef575cc895f41ce4754fd",
	"baseline-quick 4-ary 2-cube (torus) duato w=3 pcs k=2 rec=0":                "sha256:34dc9321be4f7b8f091bdd24ccdb73b25fe2285d04cf618ec5b7a659bfb7c605",
	"e1 8-ary 2-cube (torus) duato w=3 clrp k=1 rec=0":                           "sha256:90400270664fb0b7ba0b1180d2fcccb36958cd7f55a28bac925bba384c0b1708",
	"e5 8-ary 2-cube (torus) duato w=3 pcs k=1 rec=0":                            "sha256:e742f3a6472ba6d5861e71087906b5b478c5e043e95b7c3675af70247b74079d",
	"e6 8-ary 2-cube (torus) duato w=3 clrp k=1 rec=0":                           "sha256:90400270664fb0b7ba0b1180d2fcccb36958cd7f55a28bac925bba384c0b1708",
	"e6 8-ary 2-cube (torus) duato w=3 clrp k=2 rec=0":                           "sha256:219585eff70addbdb359461705c04fdfe8080d05b9549707a54247bdda31886b",
	"e6 8-ary 2-cube (torus) duato w=3 clrp k=3 rec=0":                           "sha256:a839658b719834d7d91aa6003ac145cfaff2016e6b65ce12491e6a7df6badf09",
	"e6 8-ary 2-cube (torus) duato w=3 clrp k=4 rec=0":                           "sha256:c7051ba3475864f79efec4ad04f97ca045a3e222abd2564e6707c0faaf561ddf",
	"e12-torus 8-ary 2-cube (torus) duato w=3 wormhole k=2 rec=0":                "sha256:8b194df86ba370bbaf67a3836a80c35ba50d3286cbdfb4a8fcccf87ff04eee49",
	"e12-mesh 8-ary 2-cube (mesh) duato w=2 wormhole k=2 rec=0":                  "sha256:339ad86de5a820306f5466e776252dae4e46028f2b007ff3d2edbaa5903de95e",
	"e12-cube3 4-ary 3-cube (torus) duato w=3 wormhole k=2 rec=0":                "sha256:8f681f68eb35cbc57f256444afe349464005f9982534746895dc18864cebd8a5",
	"e12-hypercube 6-dimensional hypercube duato w=2 wormhole k=2 rec=0":         "sha256:35aed1bd1cdf76b03c74053cdc7906275d09e88c36c40aecc60684c17473682a",
	"e12-torus 8-ary 2-cube (torus) duato w=3 clrp k=2 rec=0":                    "sha256:219585eff70addbdb359461705c04fdfe8080d05b9549707a54247bdda31886b",
	"e12-mesh 8-ary 2-cube (mesh) duato w=2 clrp k=2 rec=0":                      "sha256:dda2b42dbb31d9479e379aa6cbb77e0ee2f02f8af7796f7fc9d5e5b989d4a75b",
	"e12-cube3 4-ary 3-cube (torus) duato w=3 clrp k=2 rec=0":                    "sha256:3b0298df449e5e1fea15efcfe09335152308405c6c2ee7627d74c38878fe54a0",
	"e12-hypercube 6-dimensional hypercube duato w=2 clrp k=2 rec=0":             "sha256:4a627bfcb492173484891e5c1f316fab62d606b7cc15f6ae628e537dc5bd9f19",
	"e15 8-ary 2-cube (torus) dor w=2 wormhole k=2 rec=0":                        "sha256:a86a9e0ae583e621e7c9bb11b6e5c2d7dbe80642b21ac3fcaccd8fe722872861",
	"e15 8-ary 2-cube (torus) duato w=3 wormhole k=2 rec=0":                      "sha256:8b194df86ba370bbaf67a3836a80c35ba50d3286cbdfb4a8fcccf87ff04eee49",
	"e16-avoidance 8-ary 2-cube (torus) dor w=2 wormhole k=2 rec=0":              "sha256:a86a9e0ae583e621e7c9bb11b6e5c2d7dbe80642b21ac3fcaccd8fe722872861",
	"e16-recovery 8-ary 2-cube (torus) dor-nodateline w=1 wormhole k=2 rec=64":   "sha256:b7111593910f8ff096ea4e773a51b63d198b02f5d85e568477a60cb73d068bfd",
	"e16-recovery 8-ary 2-cube (torus) dor-nodateline w=1 wormhole k=2 rec=256":  "sha256:93b422f381b7a096de0eb39524c27a830780f881c8d900f2aa39a56984789ee6",
	"e21 8-ary 2-cube (mesh) dor w=2 wormhole k=2 rec=0":                         "sha256:aff8e11454ebc5215f87171f4d2cb3ffe758cd13a3892646fe114a4e25c0ffd1",
	"e21 8-ary 2-cube (mesh) westfirst w=2 wormhole k=2 rec=0":                   "sha256:ec0b527c849ef813f4b47f422fcae9d6e9b8177fd718bb5a2b91e9bc7daec9e8",
	"e21 8-ary 2-cube (mesh) negativefirst w=2 wormhole k=2 rec=0":               "sha256:63e546577b56b4d1a49c1e5ede41159d13db0a747b20c7dc66b25901e9400c51",
	"e21 8-ary 2-cube (mesh) duato w=2 wormhole k=2 rec=0":                       "sha256:339ad86de5a820306f5466e776252dae4e46028f2b007ff3d2edbaa5903de95e",
	"fattree 4-ary 2-tree (fat tree) updown w=1 wormhole k=2 rec=0":              "sha256:ec04a201040db662d0adc0c50a20e92d24babc3adad965d2a8e0ac7e884002f7",
	"fattree 4-ary 2-tree (fat tree) updown w=2 wormhole k=2 rec=0":              "sha256:71c3cc69455ca7079e5884578384fc0efedde48579733c52c1bfed99ae847af6",
	"fattree-deep 2-ary 3-tree (fat tree) updown w=1 wormhole k=2 rec=0":         "sha256:52899967c026a59a5afa893c08d9e1334128cf3aeb22736bddd0b23f41514ec0",
	"fullmesh 8-node full mesh vcfree w=1 wormhole k=2 rec=0":                    "sha256:bfac0f6e990b721f52332e519c7c813cd6020eb6b74c1e1c8bc15213555bdd06",
	"fullmesh 8-node full mesh vcfree w=2 wormhole k=2 rec=0":                    "sha256:a9a7ad8af172289b1c1f3500542077da845852be6cf80ad0241b30a6d8580e4b",
	"fattree 4-ary 2-tree (fat tree) updown w=1 clrp k=2 rec=0":                  "sha256:e444ad1db679835fa98286763897ff46108d639a2dd5c00a604deacd46638d8c",
	"fattree 4-ary 2-tree (fat tree) updown w=2 clrp k=2 rec=0":                  "sha256:5819b376af07f6161418a02c3fe5e3d4c183c19f6e71bc30ae375985e4b27957",
	"fattree-deep 2-ary 3-tree (fat tree) updown w=1 clrp k=2 rec=0":             "sha256:a59abf250d722a8d1588d7581c6f78862fde62a4d5d19807192f38949ea42b84",
	"fullmesh 8-node full mesh vcfree w=1 clrp k=2 rec=0":                        "sha256:6e1e484a3179ca4401957802575bdb2759c50a2efbf377cfae0c718ba4c70d33",
	"fullmesh 8-node full mesh vcfree w=2 clrp k=2 rec=0":                        "sha256:f77f4aedfcdddc868d8101611fe30b064559d8e1a25774eff97573a813c70675",
	"fattree 4-ary 2-tree (fat tree) updown w=1 carp k=2 rec=0":                  "sha256:8ba7534de23d7af6ee279b6707e021d7fc1c616097e47b06b85ea6e9522cb8df",
	"fattree 4-ary 2-tree (fat tree) updown w=2 carp k=2 rec=0":                  "sha256:1d38eb695f4e61e55c4bdfc65304d92ca3b79700dedea940b9ad6bb5423406e8",
	"fattree-deep 2-ary 3-tree (fat tree) updown w=1 carp k=2 rec=0":             "sha256:82a98ea8a6c6b7b40164642f673a66611595c6fd7d27b25837f0a12e75174ea9",
	"fullmesh 8-node full mesh vcfree w=1 carp k=2 rec=0":                        "sha256:009cf8679e4cbcb9ba9bfe411016a9b37b030fdeb27dd78cd4510d3b69c42356",
	"fullmesh 8-node full mesh vcfree w=2 carp k=2 rec=0":                        "sha256:4508995b426529b75229b5faa033a577a57acf2e74f7ef5a8d316adb20149491",
	"fattree 4-ary 2-tree (fat tree) updown w=1 pcs k=2 rec=0":                   "sha256:ba9e1069c495ff6b265307a6bde3eef906f66709b4d6de0b4c8a0db673138393",
	"fattree 4-ary 2-tree (fat tree) updown w=2 pcs k=2 rec=0":                   "sha256:3848fd7a821ad5814e333265aa2d2355dd2d433cb38426812eb6f7fc242e14eb",
	"fattree-deep 2-ary 3-tree (fat tree) updown w=1 pcs k=2 rec=0":              "sha256:70e0676b06642e5587e637e4d2280b0e2ae676384ca440c0028f554033e9b615",
	"fullmesh 8-node full mesh vcfree w=1 pcs k=2 rec=0":                         "sha256:8b34d9025a5f922f7bd59eda7550599e241d831c58065b578e5d1df9bc9639fd",
	"fullmesh 8-node full mesh vcfree w=2 pcs k=2 rec=0":                         "sha256:60cf122ea3ffbb63ababef3d6a1f1598dc8b63e7503ab9d0055f27df352642e7",
	"fullmesh-recovery 8-node full mesh vcfree-nolabel w=1 wormhole k=2 rec=256": "sha256:f768829c930911978b7f648b4a008f2481dbbaafc620d380968d2612e42f9856",
	"rejected dor-nodateline torus":                                              "sha256:8295ff7c8e6e8b887d14858ae3916b0e6c7ec30c0e567021fa0abb6777da9565",
	"rejected vcfree-nolabel fullmesh":                                           "sha256:c0130c7df4ca31b20b5b5d190b8f03cda1e7c85223050f71d9ddfe59c7445745",
	"recovery dor-nodateline torus":                                              "sha256:6f1d1c5204f8ee6de1d233a678b38e4aef6376539468ea9aa06c1379bc94b99b",
	"subrelation xyyx mesh":                                                      "sha256:6cb4ae78b3c7d4c4bd441580b07e9af3171c236185cc98eeb732821c93343da7",
	"livelock pingpong ring":                                                     "sha256:4f5d36a24cd1e41fb7575f4031c789f8b98fc1108f401678e002ff3340382d6e",
	"stuck xonly mesh":                                                           "sha256:1db81c212f4c51f9b423ec8134781560a42c952a93b02b7c385ab91c95aab9d2",
	"residual duato torus node 5 isolated":                                       "sha256:86b0bdd8685c76f36f6bde0c8f5c56f6dd2b468c1c636a05368a5054b94674dc",
}
