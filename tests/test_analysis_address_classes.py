"""The per-session address-class column of :class:`CorpusAnalysis`.

The column replaced a per-session scalar classifier; the digests below
were recorded with that classifier, so a session that changes class
fails here.
"""

import hashlib

import pytest

from repro import obs
from repro.analysis.bias import bias_report
from repro.analysis.context import CorpusAnalysis
from repro.analysis.figures import TELESCOPES, fig7, fig15
from repro.analysis.guidance import derive_guidance
from repro.core.addrclass import CLASS_ORDER
from repro.core.aggregation import AggregationLevel
from repro.experiment.phases import Phase
from repro.telescope.packet import Packet

#: sha256 over the newline-joined class values, in ``sessions()`` order,
#: of every (telescope, level, phase) of ``ExperimentConfig.tiny()``.
TINY_DIGESTS = {
    "T1/ADDR/INITIAL":
        "f2d04946bde502d2f89dbb1004c61341baf23ee49b1e30e95e187dcb91e23a86",
    "T1/ADDR/SPLIT":
        "31722971c8ac5ec830d85475526b4a62ad68ff87fedb85030e720828555d86d3",
    "T1/ADDR/FULL":
        "7ea6aa308d89ebd6cb9906b2bed8c76a8c47a9c6e426101e554fa7cc46c8e715",
    "T1/SUBNET/INITIAL":
        "f2d04946bde502d2f89dbb1004c61341baf23ee49b1e30e95e187dcb91e23a86",
    "T1/SUBNET/SPLIT":
        "31722971c8ac5ec830d85475526b4a62ad68ff87fedb85030e720828555d86d3",
    "T1/SUBNET/FULL":
        "7ea6aa308d89ebd6cb9906b2bed8c76a8c47a9c6e426101e554fa7cc46c8e715",
    "T1/PREFIX/INITIAL":
        "f2d04946bde502d2f89dbb1004c61341baf23ee49b1e30e95e187dcb91e23a86",
    "T1/PREFIX/SPLIT":
        "31722971c8ac5ec830d85475526b4a62ad68ff87fedb85030e720828555d86d3",
    "T1/PREFIX/FULL":
        "7ea6aa308d89ebd6cb9906b2bed8c76a8c47a9c6e426101e554fa7cc46c8e715",
    "T2/ADDR/INITIAL":
        "31c9b46732915996a9e0de0aadf86ec4603544b114a09c0772fc2f98d86d2733",
    "T2/ADDR/SPLIT":
        "748ca26f5a58483d15628c34e6b484614fd889d19f618084bc96d8cf8eaad291",
    "T2/ADDR/FULL":
        "9383e9f88adc6bf1faa79ac4a64b67207219377b04acd2aa019e8ff3dbaccc59",
    "T2/SUBNET/INITIAL":
        "7805b49747e576c96077acaac65d1f54d5b9a305c5095893feafc1c3db73aabd",
    "T2/SUBNET/SPLIT":
        "6bef9559dee38e752f2057a6cc4a27e032e890b607920b5212a59213a2bc50e5",
    "T2/SUBNET/FULL":
        "01cea1350b581b8dd9a5266faea7d5984513c014cee145dab223a810a5be19c5",
    "T2/PREFIX/INITIAL":
        "7805b49747e576c96077acaac65d1f54d5b9a305c5095893feafc1c3db73aabd",
    "T2/PREFIX/SPLIT":
        "6bef9559dee38e752f2057a6cc4a27e032e890b607920b5212a59213a2bc50e5",
    "T2/PREFIX/FULL":
        "01cea1350b581b8dd9a5266faea7d5984513c014cee145dab223a810a5be19c5",
    "T3/ADDR/INITIAL":
        "71d6a37fa41aba8789868f45be4dfa89f0ad81e93aca9e8b8f1be8abba972ca4",
    "T3/ADDR/SPLIT":
        "5aa50e8e6eb881d6c438de8b0488bc320373cbc3fa99b7f8936dc815552a1e6e",
    "T3/ADDR/FULL":
        "625cd8351f7e5cefaf3c4c1ccaffda22a8a7ca4f3f76e548c473256f890a9981",
    "T3/SUBNET/INITIAL":
        "71d6a37fa41aba8789868f45be4dfa89f0ad81e93aca9e8b8f1be8abba972ca4",
    "T3/SUBNET/SPLIT":
        "5aa50e8e6eb881d6c438de8b0488bc320373cbc3fa99b7f8936dc815552a1e6e",
    "T3/SUBNET/FULL":
        "625cd8351f7e5cefaf3c4c1ccaffda22a8a7ca4f3f76e548c473256f890a9981",
    "T3/PREFIX/INITIAL":
        "71d6a37fa41aba8789868f45be4dfa89f0ad81e93aca9e8b8f1be8abba972ca4",
    "T3/PREFIX/SPLIT":
        "5aa50e8e6eb881d6c438de8b0488bc320373cbc3fa99b7f8936dc815552a1e6e",
    "T3/PREFIX/FULL":
        "625cd8351f7e5cefaf3c4c1ccaffda22a8a7ca4f3f76e548c473256f890a9981",
    "T4/ADDR/INITIAL":
        "623ebbabfacf92286d042dfda4c0a57119ac8fae759ede480f08da0df01cf8f9",
    "T4/ADDR/SPLIT":
        "b32aca2bcd7b3b1869dddfc755010a398d58ea851fd04e274bc70eb65d2a4016",
    "T4/ADDR/FULL":
        "ef2857c61276c7bdb2789f799daf45ac14d5f938b21d1cffb7bb50f82f99e682",
    "T4/SUBNET/INITIAL":
        "623ebbabfacf92286d042dfda4c0a57119ac8fae759ede480f08da0df01cf8f9",
    "T4/SUBNET/SPLIT":
        "b32aca2bcd7b3b1869dddfc755010a398d58ea851fd04e274bc70eb65d2a4016",
    "T4/SUBNET/FULL":
        "ef2857c61276c7bdb2789f799daf45ac14d5f938b21d1cffb7bb50f82f99e682",
    "T4/PREFIX/INITIAL":
        "623ebbabfacf92286d042dfda4c0a57119ac8fae759ede480f08da0df01cf8f9",
    "T4/PREFIX/SPLIT":
        "b32aca2bcd7b3b1869dddfc755010a398d58ea851fd04e274bc70eb65d2a4016",
    "T4/PREFIX/FULL":
        "ef2857c61276c7bdb2789f799daf45ac14d5f938b21d1cffb7bb50f82f99e682",
}


def key_args(key: str) -> tuple[str, AggregationLevel, Phase]:
    telescope, level, phase = key.split("/")
    return telescope, AggregationLevel[level], Phase[phase]


def class_values(analysis: CorpusAnalysis, key: str) -> list[str]:
    codes = analysis.address_classes(*key_args(key))
    return [CLASS_ORDER[code].value for code in codes.tolist()]


class TestTinyCorpusContract:
    def test_every_key_covered(self, tiny_analysis):
        assert {f"{t}/{level.name}/{phase.name}"
                for t in tiny_analysis.corpus.telescopes()
                for level in AggregationLevel
                for phase in Phase} == set(TINY_DIGESTS)

    @pytest.mark.parametrize("key", sorted(TINY_DIGESTS))
    def test_no_session_changes_class(self, tiny_analysis, key):
        values = class_values(tiny_analysis, key)
        assert len(values) == len(tiny_analysis.sessions(*key_args(key)))
        digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
        assert digest == TINY_DIGESTS[key]

    def test_all_three_classes_present(self, tiny_analysis):
        values = class_values(tiny_analysis, "T1/ADDR/SPLIT")
        assert {value: values.count(value) for value in set(values)} \
            == {"structured": 472, "unknown": 125, "random": 2}


class TestClassifiedOnce:
    def test_artifacts_share_one_column_per_key(self, tiny_corpus):
        analysis = CorpusAnalysis(tiny_corpus)
        with obs.FlightRecorder() as recorder:
            derive_guidance(analysis)
            bias_report(analysis)
            fig7(analysis)
            fig15(analysis)
        keys = [(span.attrs["telescope"], span.attrs["level"],
                 span.attrs["phase"])
                for span in recorder.tracer.find("analysis.classify_address")]
        assert len(keys) == len(set(keys))
        assert set(keys) == (
            {(t, "ADDR", "FULL") for t in tiny_corpus.telescopes()}
            | {(t, "ADDR", "INITIAL") for t in TELESCOPES}
            | {("T1", "ADDR", "SPLIT")})

    def test_classification_materializes_no_packets(self, tiny_corpus,
                                                   monkeypatch):
        built = []
        original = Packet.__post_init__

        def trap(packet):
            built.append(packet)
            original(packet)

        monkeypatch.setattr(Packet, "__post_init__", trap)
        analysis = CorpusAnalysis(tiny_corpus)
        for key in TINY_DIGESTS:
            class_values(analysis, key)
        assert built == []
