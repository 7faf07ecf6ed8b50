"""Golden outputs: the sha256 of the CLI's stdout, with its exit code, for a
fixed set of commands.

`cli.main` runs in-process with stdout redirected, so the whole set takes
about seven seconds, most of it the length-68 language.  The digests pin
every output byte of commands that cover each subcommand family (sigma in
all three formats, one at length 68, where the tail tables ban runs up to
length 81 and 11,246 words survive the enumerator, eval of a Markov value
and of a lambda value, cuts on a good, a bad and two mixed cuts, one pushcut
per template kind and one template mismatch, --verify on each subcommand that
reads it, connect, dim, renorm, interval, farey, alphabets, bound, asym).
A change that is meant to alter output updates the digest here and records
the output change in CHANGES.md; any other digest change is a regression.
"""

import contextlib
import hashlib
import io

import pytest

from cfspectra import cli


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

GOLDEN = [
    (("sigma", "--t", "3+6^-204", "--n", "34", "-f", "json"),
     0, "1eb0608861c4ef7cee4f9b2354954a0e1318c7920bae27502c4ae2c713cc1fa3"),
    (("sigma", "--t", "3+6^-204", "--n", "68", "-f", "json"),
     0, "7087c67005d59d088fa9dc88fd76b66b8ddb82b902ea16a0f573e7da412edb0e"),
    (("sigma", "--t", "3+6^-6", "--n", "12", "-f", "csv"),
     0, "bc7f8f53f50183ee5455f74e0315e59e19b7831554630cc38176b2494d40a8a4"),
    (("sigma", "--t", "3", "--n", "16", "-f", "json"),
     0, "43b9d53a1163100cefb44d956e67b7189b4b17b12ed1d4bda35ea61b1c80ba2d"),
    (("sigma", "--t", "sqrt(12)", "--n", "5", "-f", "json"),
     0, "35f06fbfcf33e6b099c5fa8188fc665e8e227494f1e1eb3f065229f32ed6d8c3"),
    (("sigma", "--t", "3.05", "--n", "10", "-f", "csv"),
     0, "b632a2b281e6d2705eae776300f78ba367757ed92aff4a2e057e63f13e552ded"),
    (("sigma", "--t", "3+6^-3", "--n", "9", "-f", "csv"),
     0, "c534d2c7a92cb0503872f9c389783fa3ae21ab1c491ab8a262e2ac294b59f7f8"),
    (("sigma", "--t", "2.9", "--n", "12", "-f", "json"),
     0, "e4015a0007aea06ae7b21f0a78b4bf5bdb7303f78a9691e2769b7d2bd9cc9c08"),
    (("sigma", "--t", "3-6^-6", "--n", "10", "-f", "csv"),
     0, "06db938062be0faac54d2715e74d87b048f0d44aa177092fd7902ab1d9d0e8aa"),
    (("eval", "--seq", "per(2211)"),
     0, "9e0a7dc3fda9186d3157bd66ae2c0145508fb0ae7e1a70ec597e720e7944e4a8"),
    (("eval", "--seq", "l:per(1) mid(22) r:per(1)", "--at", "0"),
     0, "b170caa20e8a1a1c48cda42765c96aef2cea2da72656fd45ca2fad0a4928dfbc"),
    (("cuts", "--cut", "2211|2211"),
     0, "736d92fc3fb348fe47ba76ac2e658336d79c0784a6e340915003adf9d6d88fd1"),
    (("cuts", "--cut", "2|2111111"),
     0, "a4d48acaafe3f613eef350246f528540740bbf5d47b7ef0e62dedb979174d86e"),
    (("cuts", "--cut", "2222|1111"),
     0, "ba6d275b416ff3019182fd50aae8198ecb40aeff73045116934d0fb37d1080ea"),
    (("cuts", "--cut", "22|11"),
     0, "94fc4573023f84a5ca924489fb49e79cd74ec95eb5a91c13bf08ca1d450a6d72"),
    (("eval", "--seq", "per(2211)", "--verify"),
     0, "9e0a7dc3fda9186d3157bd66ae2c0145508fb0ae7e1a70ec597e720e7944e4a8"),
    (("sigma", "--t", "3+6^-6", "--n", "8", "--verify"),
     0, "833c0880a2ff53e24015d908b6ac06b01ad0291a36c7a06b58e01787f4a1ab70"),
    (("pushcut", "--w", "UV", "--cut", "2211|2211", "--kind", "good-symmetric",
      "--verify"),
     0, "91de276e117a0f355eeaeaba58c713f224f14b3da62fdc940ec3f229d06f0865"),
    (("pushcut", "--w", "UV", "--cut", "2211|2211", "--kind", "good-symmetric"),
     0, "853170caf9627d000c2a96f53872673ecf34df9a9387091340a7ff57e6734f78"),
    (("pushcut", "--w", "UV", "--cut", "22111122|11222211",
      "--kind", "good-asymmetric"),
     0, "d4f97a0f21efbf298e62874ae65a702605b6ef6c6a43e1e93af2034b61a1fcbc"),
    (("pushcut", "--w", "UV", "--cut", "2222|1111", "--kind", "bad-symmetric"),
     0, "299de9d09a01d5f603b44936855572bcf4cc2afaedd968a727b865935148bd66"),
    (("pushcut", "--w", "UV", "--cut", "22111111|22222211",
      "--kind", "bad-asymmetric"),
     0, "ecfedea68a641ac37f7bb8480af12cc186b14109e6c4c1cbeda50dd481af2b1f"),
    (("pushcut", "--w", "U", "--cut", "2211|2211", "--kind", "bad-symmetric"),
     1, EMPTY),
    (("connect", "--kind", "ab", "--n", "5"),
     0, "f7877db86b08710c7d75345c7121c7669398593cc5e3f2ef9b7a51c5f55cea0d"),
    (("connect", "--kind", "a-to-alphabet", "--n", "4", "--alphabet", "ab,b"),
     0, "938725ebfcc64136a5c445b12965bc10515c4f19bbecf756076b0d5c3268ca57"),
    (("connect", "--kind", "alphabet-to-b", "--n", "4", "--alphabet", "ab,b"),
     0, "04584ff12ed7ec87696d2a035ca7196a9339313ef6b9ab53e571f36714a92dfa"),
    (("dim", "--blocks", "1,2", "--level", "8", "-f", "json"),
     0, "3429eae487032f485c0eeb9b35969600a4e47999dc621486cc907a688ad0e9e6"),
    (("dim", "--blocks", "1,2", "--level", "12", "-f", "json"),
     0, "43c063226b1b36d018a925184d38df46109dd898dcbfc43d66025ca78d3b1d39"),
    (("renorm", "--word", "221122112211", "--n", "6"),
     0, "4c2410d577dfeeefeb73545a7327916acbf1e047ccd8d6ddcba15eb185c18511"),
    (("interval", "--word", "2211"),
     0, "765a70b05c54d541a4bff71172d067b2cedbdca86894154fa46ceba720c3d124"),
    (("eval", "--seq", "l:per(12) mid(2) r:per(1)"),
     0, "179d78b274b8c8d1afa243c185f095f78fa3ee74effce1bf8e04a2523aaa8f6b"),
    (("eval", "--seq", "l:per(12) mid(2) r:per(1)", "--at", "1"),
     0, "05b01102bb2b4b6a60424b0cb2b9de1d61b53fb1ae56ff3c5145a558dbf7652f"),
    (("eval", "--seq", "l:per(12) mid(2) r:per(1)", "--at", "1", "--verify"),
     0, "05b01102bb2b4b6a60424b0cb2b9de1d61b53fb1ae56ff3c5145a558dbf7652f"),
    # the value is attained at index 10, inside the right period, with two radicals
    (("eval", "--seq", "l:per(2211) mid(1121) r:per(12122)", "-f", "json"),
     0, "34cc66fdd28ed03b7db081b003fb3c874cf051b85952e579832b2fb5fb1ace18"),
    (("eval", "--seq", "l:per(2211) mid(1121) r:per(12122)", "--at", "-9", "-f", "json"),
     0, "48ec409f8a912d0abedf9fc37227a0704082da313b3dfa601b1f47c3e1b0202b"),
    (("farey", "--n", "6"),
     0, "4b75d1e021057e89e08e45743ce7b3d42eca6d68db8d6bfed57aed79ffbca6aa"),
    (("alphabets", "--depth", "3"),
     0, "184419bba9330ab0cdae6d076faf064ebce10c6b41c4879bb483124ec3d2667b"),
    (("bound", "--rho", "e^-100"),
     0, "8dfabe3b8171cc9df8d27387cf2ddb150e5801c6d326071158cfcafc18dbf486"),
    (("asym", "--rho", "6^-18"),
     0, "d2d832007e439f7adb55526f5b951b19143304f1724642da2761365efecd01c0"),
    (("asym", "--rho", "e^-100", "-f", "json"),
     0, "158fbfee65c0658132adcc74053932c757e4380b29b12005201214219a35a7bf"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = cli.main(list(argv))
    assert (got, hashlib.sha256(buf.getvalue().encode()).hexdigest()) == (code, digest)
