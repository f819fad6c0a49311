"""Differential corpus: the bench pools at seeds 1-5 keep their committed digests.

Every instance of every workload in ``perfbench/workloads.py`` is built
with ``build_pool`` at seeds 1-5 and run once, as the bench runs it, and
must pass its workload's ``check``.  Two digests per pool are compared
with the table below, computed as ``perfbench/worker.py`` computes them:
the manifest digest covers the inputs, and the output digest covers the
exact outputs (gFlows, term counts, cone sizes, exit codes, ...) that the
bench's output digest covers.  A change that moves any of them fails
here; a refactor that changes no result leaves the table as it is.

cli-session runs in process through ``mbqcflow.cli.run_command`` from a
directory that holds the pool's files.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from mbqcflow.cli import run_command

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import workloads
finally:
    sys.path.pop(0)

SEEDS = (1, 2, 3, 4, 5)

#: (manifest digest, output digest) per workload and seed.
DIGESTS = {
    ("cli-session", 1): (
        "b431348a9bfd14c9b1653a2950dae2be40ee3cdc7a4fb0a31ddbf76328ff23e1",
        "dda25425aa2c90747463fa83d52b8afd2a6d5ee51400f8138f20abc50a2877a7",
    ),
    ("cli-session", 2): (
        "b130e9049b3836e6469830b074bfd06aff9e79cc876eec6cabf296096c306146",
        "11dbcd3ae511ab2f36fa6d271f8359b7624715a7c0f5e8b03c37dff928c6d8ab",
    ),
    ("cli-session", 3): (
        "7a1e8da34f7c081a4bf10ba56c027b2010de3bde35073027ef1e9bf9ea1de0d7",
        "6119732c456bc95c42ca537f101b0c910a86d03ca360cabae2b7f0d340c82054",
    ),
    ("cli-session", 4): (
        "83e8beccfb14a1d6bb1ab323ca34db970eadf566dc3a48ade5bc2fa4295d5761",
        "69712ac4c26478700910e7dc7dc778014ab0117aa0dba6df1e72865d079c3e01",
    ),
    ("cli-session", 5): (
        "07e87735baf3533af0d45b804694cfc3f1cb207b21c73b08e1b7f6371f7948e9",
        "d9d29f013eede4654b47b44b29397c52d8ac93dac26eeb65b51f83cce1697b94",
    ),
    ("exact-small", 1): (
        "d915e48ae39651866ee561e5e73df10ef6634217a97105e690d589a32bb6cf63",
        "3c3d196018ad659998e4a169f9abc8859c5c761fd469cfc60ece5737ef3669f1",
    ),
    ("exact-small", 2): (
        "f1b21d5e39b9f25b9334b2dfa65e518cee23102f2b676036ac028ff4749ee065",
        "b0ace315dad1e7a71b808851de0bccc7c79859023ba601a568d12c7f4928e43b",
    ),
    ("exact-small", 3): (
        "8ef2078ba424de4053640f1df29bfe1375a58935cf68aa4ca195bd5c6d2eec97",
        "4a0dbc11809adb1f7b6beb461ae59834535840b3021e8bbdf1d2e8474e2eb8ec",
    ),
    ("exact-small", 4): (
        "23d0d0bf865facd30f3cc2cd0864890706f07f37b425d2210e8aaf622d04334c",
        "abbb6755468e5d1886f6dac16338f59d93168a877c3b30bb19a067f0983de89a",
    ),
    ("exact-small", 5): (
        "f7e1815696bcc6b52278a687c35f4316c4db2133f1745a58a602e1ec7cd13532",
        "13a3ab4691d9642336073341fa97239aa6234527ad0a445d6859cc54ed86fa90",
    ),
    ("flow-scan", 1): (
        "a3fbb1ec70c2a5b425cbcc2a4ad1e0a64034a025a6624ae8d5ee19c6f3e42abc",
        "2367aa5928fd54ff4463bc448cd343914cd39a433561b7396b28a04c89e6c463",
    ),
    ("flow-scan", 2): (
        "b3a39e8fc2f812c868321518aba18b0a70a3fd0b6022efac0a847c3ebd3e8181",
        "2f3b33b146197e6138d97b88b4456b9055604e8cb8647fc78b33ecbb927cb274",
    ),
    ("flow-scan", 3): (
        "44ef81b1c177bcf9b4f3bebb0bcb8c374ee2bb8c67bba6dbccc2f56e3d421bec",
        "9cafd281eaa794c005dac659e14c35b28882bd87b0a8fd07f8c928f0e9b611c8",
    ),
    ("flow-scan", 4): (
        "5d5732488380b2dde8ac6165b65ca99eeb59608f907c719a0d96830cb2c0744c",
        "af614aa27c2ae7bd79d53c6a507c47bc4cfa81d9f8d596f56651b975cc211275",
    ),
    ("flow-scan", 5): (
        "436244b634856b053d435bf8b14f56a79baf9f8332e867baa8ec5feebcb6d221",
        "d3cd899daf0daecb58c4ba039f03ef87c6b279651de906d82c86370eee193e17",
    ),
    ("sim-clifford", 1): (
        "7c660db469fb3b4b9787ea12bdd6ad1a1dc0fe04285f3e8ebebd1993a668224c",
        "70ee9dd9b6bad09a23a1bd4b8d266859e12e187f101116187fdd170f4bcde775",
    ),
    ("sim-clifford", 2): (
        "ef4170c79babf0fdd227d2cb3c5fb00f0cd233481644c04a5ecb95c6f4364850",
        "48ef7ea7755d8e154813c40e046021f701385fae4444b4caf3c94130442e6548",
    ),
    ("sim-clifford", 3): (
        "d51a6a58e391ee5cee7abb4fa33eeff9b50f237230169fa4ec7c35fc7f965aa5",
        "2ccaf03b6c635bb6b0faa172b2ca7289db5a56aa0950b784c5e2d9a51803d30b",
    ),
    ("sim-clifford", 4): (
        "67262fc7c94ef65b6e5b6b064e930b439d3130ea9924ac3151b36234d00413fb",
        "b0bbd11778d6fe97c69bb4ae72ba904e66aafb296f10567776ad8acdcc75cd4d",
    ),
    ("sim-clifford", 5): (
        "0a85dadf2ffeeb6817992af81dccc858827095212d6c909288381719c490a5e6",
        "401a0c0a5ba865f17da497996ec80f9a2e62c25211a4acf07b1c700891090ea4",
    ),
    ("sim-terms", 1): (
        "71170739ecc5739f1e0c32fe61514d7c6d7455f974d884729ef5df88e0f40f75",
        "deb919d598ee5869f42de45b1be279b3ffab2d30c54a2d90a237c73f14a88b2c",
    ),
    ("sim-terms", 2): (
        "6df3783653c06e488b84c668594af76e5294bc324ff6c490ec07f08e782376cc",
        "ee5f6ef555b59143513cf504270cdb8ffe5c9b7e2d88c857b71ecc961aa8017a",
    ),
    ("sim-terms", 3): (
        "c99ddbca35d9ced538df3fa2f5fd00b585b4c876a2d8330483aea94470d020af",
        "aab4c7b4a53747b61c9b0bc5c6564168d7dda48a49b6cf006e43b14b2833cee9",
    ),
    ("sim-terms", 4): (
        "4781bdef5537152050f8b9ec5a9ea7916151e8ea3eca2514a996f00e89518c12",
        "f0bad311744aa52628872676e159ec0707e973fb65953b860b9ef922d87d5ecd",
    ),
    ("sim-terms", 5): (
        "1cf606276756e410bd24da7ca647dbf0878a89432d26cc7b7d57ea6b58b9fd95",
        "47ca41156481b07d43258de25d4e2c41c148c91daf3275327407431997f1a7e5",
    ),
}


def run_cli_in_process(inst: workloads.Instance) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(list(inst.argv))
    return code, out.getvalue().encode()


def pool_digests(name: str, seed: int) -> tuple[str, str, dict[str, list[str]]]:
    """Manifest digest, output digest and check problems of one pool."""
    workload = workloads.WORKLOADS[name]
    pool = workloads.build_pool(name, seed)
    run = workload.run
    if pool[0].argv:
        for file, text in pool[0].files.items():
            Path(file).write_text(text, encoding="utf-8")
        run = run_cli_in_process
    items, problems = [], {}
    for inst in pool:
        summary = workload.summarize(inst, run(inst))
        items.append(workload.digest_item(inst, summary))
        found = workload.check(inst, summary)
        if found:
            problems[f"{inst.label}#{inst.index}"] = found
    manifest = workloads.digest([inst.manifest_item() for inst in pool])
    return manifest, workloads.digest(items), problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_pools_keep_their_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for seed in SEEDS:
        manifest, output, problems = pool_digests(name, seed)
        assert problems == {}, f"{name} seed {seed}"
        assert (manifest, output) == DIGESTS[name, seed], f"{name} seed {seed}"
