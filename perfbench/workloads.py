"""Workspaces for the benchmark: the shipped sample and two seeded synthetic ones.

Each workspace is a directory of plain input files, the same files a
researcher would hand the command line:

* ``transcript.txt``, ``session.json`` (a recorded model session),
  ``coder1.csv``, ``coder2.csv``, ``alias_map.csv``, ``run_config.json``;
* ``session_half.json``, the first half of the page replies, and
  ``snapshot/``, the interrupted state that replaying it leaves behind;
* ``expect.json``, the outputs the generator knows each command must print.

The synthetic ``session.json`` is recorded with the program's own
``run_analysis`` against :class:`SyntheticTransport`, a deterministic
``kind = "replay"`` transport whose replies quote the generated page text.
The same seed gives byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from thematica import cli
from thematica.codebook import HUMAN_CSV_COLUMNS
from thematica.corpus import load_corpus
from thematica.gateway import ModelConfig, request_digest, save_fixture
from thematica.pipeline import run_analysis
from thematica.promptkit import StudyFocus

SAMPLES_DIR = Path(cli.__file__).parent / "samples"

SAMPLE = "sample"
LONG_INTERVIEW = "long-interview"
PARAPHRASE = "paraphrase"
WORKLOADS = (SAMPLE, LONG_INTERVIEW, PARAPHRASE)

PAGE_SIZE = 10
FOCUS = "how people adjust to a new workplace"
QUESTION = "What shapes the adjustment of new staff to an unfamiliar workplace?"

# Quote kinds of the paraphrase workload, and the trace level each must get.
VERBATIM, CASE, EDIT, WRONG_PAGE, FABRICATED, MULTI = (
    "verbatim", "case", "edit", "wrong_page", "fabricated", "multi")
LEVEL_OF = {VERBATIM: "Exact", CASE: "Normalized", EDIT: "Fuzzy",
            WRONG_PAGE: "Failed", FABRICATED: "Failed", MULTI: "Failed"}
LEVELS = ("Exact", "Normalized", "Fuzzy", "Failed")


@dataclass(frozen=True)
class Shape:
    """Sizes of one synthetic workload; they do not depend on the seed."""

    pages: int
    codes_per_page: int
    themes: int
    matcher: str
    parallelism: int
    coder_size: int
    shared_with_model: int   # coder1 labels that are also model labels
    paired: int              # coder2 labels that are variants of coder1 labels
    kinds: dict              # quote kind -> count; the rest are verbatim


SHAPES = {
    # Persistence and matching: 258 requests, 512 codes, two ~130-code coders.
    LONG_INTERVIEW: Shape(pages=256, codes_per_page=2, themes=8,
                          matcher="exact_normalized", parallelism=1,
                          coder_size=130, shared_with_model=65, paired=65, kinds={}),
    # Tracing: a third of the quotes are not verbatim; parallel code extraction.
    PARAPHRASE: Shape(pages=16, codes_per_page=4, themes=4,
                      matcher="token_overlap", parallelism=2,
                      coder_size=40, shared_with_model=24, paired=24,
                      kinds={CASE: 8, EDIT: 10, WRONG_PAGE: 1, FABRICATED: 1, MULTI: 1}),
}

# Every transcript word has five letters and every sentence eight words, so
# page and quote lengths, and with them the cost of aligning a quote, are the
# same for every seed; only the content changes.
_WORDS = tuple(sorted(set("""
about above actor adult after again agent agree ahead alarm album alert alike
alive allow alone along alter among anger angle angry apart apple apply arena
argue arise aside asset avoid award aware badly basic basis beach begin being
below bench birth black blame blind block blood board boost bound brain brand
bread break breed brief bring broad brown build built buyer cabin cable carry
catch cause chain chair chart chase cheap check chest chief child civil claim
class clean clear climb clock close coach coast could count court cover craft
crash cream crime cross crowd cycle daily dance dealt death delay depth doing
doubt dozen draft drama drawn dream dress drink drive early earth eight elite
empty enemy enjoy enter entry equal error event every exact exist extra faith
false fault field fifth fifty fight final first fixed flash fleet floor fluid
focus force forth forty forum found frame fresh front fruit fully funny giant
given glass globe going grace grade grand grant grass great green gross group
grown guard guess guest guide happy heart heavy hence horse hotel house human
ideal image index inner input issue joint judge known label large later laugh
layer learn lease least leave legal level light limit local logic loose lower
lucky lunch major maker match maybe meant media metal might minor mixed model
money month moral motor mount mouse mouth movie music never newly night noise
north noted novel nurse occur ocean offer often order other ought paint panel
paper party peace phase phone photo piece pilot pitch place plain plane plant
plate point pound power press price pride prime print prior prize proof proud
prove quick quiet quite radio raise range rapid ratio reach ready refer relax
reply right river rough round route royal rural scale scene scope score sense
serve seven shall shape share sharp sheet shelf shell shift shirt shock shoot
short shown sight since sixth skill sleep slide small smart smile smoke solid
solve sound south space spare speak speed spend spent split spoke sport staff
stage stake stand start state steam steel stick still stock stone stood store
storm story strip stuck study stuff style sugar suite super sweet table taken
taste teach teeth thank theft their theme there these thick thing think third
those three threw throw tight tired title today topic total touch tough tower
track trade train treat trend trial tried truck truly trust truth twice under
union unity until upper upset urban usage usual valid value video visit vital
voice waste watch water wheel where which while white whole whose woman world
worry would wound write wrong wrote young youth
""".split())))
_SENTENCE_WORDS = 8
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _syllables() -> list[str]:
    return [c + v for c in _CONSONANTS for v in _VOWELS]


def _label_words(rng: random.Random) -> list[str]:
    """Shuffled two-syllable pseudo-words; each label draws fresh ones."""
    words = [a + b for a in _syllables() for b in _syllables()]
    rng.shuffle(words)
    return [word.capitalize() for word in words]


def _capitalized(words: list[str]) -> str:
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


def _sentence(rng: random.Random) -> str:
    return _capitalized([rng.choice(_WORDS) for _ in range(_SENTENCE_WORDS)])


def _invented_sentence(rng: random.Random) -> str:
    """Eight five-letter pseudo-words, none of which a transcript uses."""
    syllables = _syllables()
    words: list[str] = []
    while len(words) < _SENTENCE_WORDS:
        word = rng.choice(syllables) + rng.choice(syllables) + rng.choice(_CONSONANTS)
        if word not in _WORDS:
            words.append(word)
    return _capitalized(words)


@dataclass(frozen=True)
class Code:
    label: str
    quote: str
    page: int
    kind: str


class Plan:
    """Everything the generator decides for one synthetic workspace."""

    def __init__(self, workload: str, seed: int) -> None:
        shape = SHAPES[workload]
        rng = random.Random(f"{workload}:{seed}")
        self.shape = shape
        self.pages = self._transcript(rng, shape.pages)
        pool = iter(_label_words(rng))

        def fresh_label(words: int = 3) -> str:
            return " ".join(next(pool) for _ in range(words))

        count = shape.pages * shape.codes_per_page
        kinds = [kind for kind, n in shape.kinds.items() for _ in range(n)]
        kinds += [VERBATIM] * (count - len(kinds))
        rng.shuffle(kinds)
        self.codes: list[Code] = []
        for index, kind in enumerate(kinds):
            page = index // shape.codes_per_page + 1
            sentence = self.pages[page - 1][index % shape.codes_per_page]
            self.codes.append(Code(fresh_label(), self._quote(rng, kind, page, sentence),
                                   page, kind))

        labels = [code.label for code in self.codes]
        self.theme_names = [fresh_label(2) for _ in range(shape.themes)]
        self.theme_members = [labels[k::shape.themes] for k in range(shape.themes)]
        self.coder1, self.coder2, self.aliases = self._coders(rng, shape, labels, fresh_label)

    @staticmethod
    def _transcript(rng: random.Random, page_count: int) -> list[list[str]]:
        """Pages of PAGE_SIZE one-sentence paragraphs; no sentence repeats."""
        seen: set[str] = set()
        pages = []
        for _ in range(page_count):
            page = []
            while len(page) < PAGE_SIZE:
                sentence = _sentence(rng)
                if sentence not in seen:
                    seen.add(sentence)
                    page.append(sentence)
            pages.append(page)
        return pages

    def transcript(self) -> str:
        """Plain text, one question or answer per paragraph."""
        return "\n\n".join(f"{'Q' if i % 2 == 0 else 'A'}: {sentence}"
                           for page in self.pages for i, sentence in enumerate(page)) + "\n"

    def _quote(self, rng, kind: str, page: int, sentence: str) -> str:
        if kind == VERBATIM:
            return sentence
        if kind == CASE:
            return sentence.lower()
        if kind == EDIT:
            position = rng.choice([i for i, ch in enumerate(sentence) if ch.isalpha()])
            swap = "q" if sentence[position].lower() != "q" else "x"
            return sentence[:position] + swap + sentence[position + 1:]
        if kind == WRONG_PAGE:
            # Taken from the page the "found on page k" scan reaches last, so
            # the scan aligns against every other page whatever the seed.
            last = len(self.pages)
            source = last if page != last else last - 1
            return self.pages[source - 1][-1]
        invented = _invented_sentence(rng)
        return invented if kind == FABRICATED else f"{sentence} {invented}"

    @staticmethod
    def _coders(rng, shape: Shape, labels: list[str], fresh_label):
        """Two human codebooks; coder2 pairs with coder1 through variants.

        Every label uses words no other label uses, so a variant overlaps only
        the label it was made from and the expected pairing is unambiguous in
        every matcher mode.  Exact mode pairs case variants only; token-overlap
        mode also pairs variants with one word dropped or added.
        """
        shared = rng.sample(labels, shape.shared_with_model)
        coder1 = shared + [fresh_label() for _ in range(shape.coder_size - len(shared))]
        rng.shuffle(coder1)
        sources = rng.sample(coder1, shape.paired)
        variants = []
        aliases = []
        for position, source in enumerate(sources):
            if shape.matcher == "exact_normalized" or position % 3 == 0:
                variant = source.lower()
            elif position % 3 == 1:
                variant = " ".join(source.split()[:-1])
            else:
                variant = f"{source} {fresh_label(1)}"
            variants.append(variant)
            aliases.append((variant, source))
        taken = set(coder1)
        unused_model = [label for label in labels if label not in taken]
        own = rng.sample(unused_model, (shape.coder_size - shape.paired) // 2)
        own += [fresh_label() for _ in range(shape.coder_size - shape.paired - len(own))]
        coder2 = variants + own
        rng.shuffle(coder2)
        return coder1, coder2, aliases

    def page_reply(self, number: int) -> str:
        """One page's extraction reply, in dialect D1, D2 or D3 by page number."""
        codes = [code for code in self.codes if code.page == number]
        dialect = number % 3
        if dialect == 1:
            lines = ["Emerging Codes with Supporting Sentences and Page Number:", ""]
            lines += [f'{i}. **{c.label}**: "{c.quote}" - Page {c.page}'
                      for i, c in enumerate(codes, start=1)]
            return "\n".join(lines)
        if dialect == 2:
            return "\n\n".join(
                f'Emerging Code: **{c.label}**\n- Supporting Sentence: "{c.quote}"\n'
                f"- Page: Page {c.page}" for c in codes)
        return "\n".join(f'{i}. {c.label}\n- "{c.quote}"\n- Page {c.page}'
                         for i, c in enumerate(codes, start=1))

    def theme_reply(self) -> str:
        blocks = []
        for number, (name, members) in enumerate(zip(self.theme_names, self.theme_members),
                                                 start=1):
            lines = [f"### Theme {number}: {name}"]
            lines += [f"- **{label}**" for label in members]
            lines.append(f"**Description**: Codes that speak to {name.lower()}.")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks)

    def interpretation_reply(self) -> str:
        sections = ["Interpretation of Themes:"]
        sections += [f"Theme {number}: {name}\nThe {len(members)} codes of this theme show how "
                     f"{name.lower()} shapes the adjustment to a new workplace."
                     for number, (name, members)
                     in enumerate(zip(self.theme_names, self.theme_members), start=1)]
        return "\n\n".join(sections)

    def expected(self) -> dict:
        trace = {level: 0 for level in LEVELS}
        for code in self.codes:
            trace[LEVEL_OF[code.kind]] += 1
        similar = self.shape.paired
        codes = len(self.codes)
        return {
            "codes": codes, "emerging": codes, "themes": self.shape.themes,
            "trace": trace,
            "similar": similar,
            "merged": len(self.coder1) + len(self.coder2) - similar,
            "difference": f"{float(Fraction(similar - codes, similar) * 100):.2f}",
            "notes": [],
            "labels_compared": len(self.coder1) + len(self.coder2) + codes,
        }


class SyntheticTransport:
    """Deterministic stand-in for a model: replies are built from the plan."""

    kind = "replay"

    def __init__(self, plan: Plan) -> None:
        self.plan = plan

    def send(self, config, messages, context=None) -> str:
        if context == "theme generation":
            return self.plan.theme_reply()
        if context == "interpretation":
            return self.plan.interpretation_reply()
        return self.plan.page_reply(int(context.split()[1]))


class _Recorder:
    """Wraps a transport and keeps every (digest, reply) pair in request order."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.kind = inner.kind
        self.entries: list[dict[str, str]] = []

    def send(self, config, messages, context=None) -> str:
        reply = self.inner.send(config, messages, context)
        self.entries.append({"digest": request_digest(config, messages), "response": reply})
        return reply


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _coder_rows(coder_id: str, labels: list[str], themes: int) -> list[list]:
    size = -(-len(labels) // themes)
    return [[coder_id, f"{coder_id} theme {index // size + 1}", label, "", ""]
            for index, label in enumerate(labels)]


def write_synthetic(workload: str, seed: int, workspace: Path) -> dict:
    """Write the input files of a synthetic workload and record its session."""
    plan = Plan(workload, seed)
    shape = plan.shape
    (workspace / "transcript.txt").write_text(plan.transcript(), encoding="utf-8")
    _write_csv(workspace / "coder1.csv", HUMAN_CSV_COLUMNS, _coder_rows("coder1", plan.coder1, 10))
    _write_csv(workspace / "coder2.csv", HUMAN_CSV_COLUMNS, _coder_rows("coder2", plan.coder2, 10))
    _write_csv(workspace / "alias_map.csv", ["from_label", "to_label"], plan.aliases)
    config = {
        "input": "transcript.txt", "page_size": PAGE_SIZE,
        "focus_description": FOCUS, "research_question": QUESTION,
        "model": {"parallelism": shape.parallelism},
        "transport": "replay", "fixture": "session.json", "output_dir": "out",
        "matcher": shape.matcher,
    }
    (workspace / "run_config.json").write_text(json.dumps(config, indent=2) + "\n",
                                               encoding="utf-8")

    # One in-memory pass records the session.  Parallelism 1 keeps the
    # entries in request order; it is not part of the request digest.
    recorder = _Recorder(SyntheticTransport(plan))
    run_analysis(load_corpus(workspace / "transcript.txt", page_size=PAGE_SIZE),
                 StudyFocus(FOCUS, QUESTION), ModelConfig(parallelism=1), recorder)
    save_fixture(workspace / "session.json", recorder.entries)
    return plan.expected()


SAMPLE_EXPECTED = {
    "codes": 59, "emerging": 15, "themes": 4,
    "trace": {"Exact": 59, "Normalized": 0, "Fuzzy": 0, "Failed": 0},
    "similar": 67, "merged": 104, "difference": "11.94",
    "notes": ["table1.merged_codes: computed 104 differs from the reference value 106"],
    "labels_compared": 69 + 102 + 59,
}


@contextlib.contextmanager
def inside(directory: Path):
    """Run the enclosed commands with ``directory`` as the working directory.

    Config files name their inputs relative to the working directory, as
    they do when a researcher runs the command line from the workspace.
    """
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def make_snapshot(workspace: Path) -> int:
    """Leave the interrupted state of a run whose fixture stops half-way.

    Returns the number of requests a resumed run still has to send: those
    whose reply is neither in the partial artifact nor in the response cache.
    """
    config = json.loads((workspace / "run_config.json").read_text(encoding="utf-8"))
    page_count = load_corpus(workspace / config["input"], page_size=config["page_size"]).page_count
    session = json.loads((workspace / "session.json").read_text(encoding="utf-8"))
    half = page_count // 2
    save_fixture(workspace / "session_half.json", session[:half])
    code, _, err = run_cli(["--config", "run_config.json", "--output-dir", "snapshot",
                            "analyze", "--replay", "session_half.json"])
    if code != cli.EXIT_PARTIAL:
        raise RuntimeError(f"half-way replay exited {code}, expected {cli.EXIT_PARTIAL}: {err}")
    state = json.loads((workspace / "snapshot" / "analysis.json").read_text(encoding="utf-8"))
    wanted = {f"page_{n}" for n in range(1, half + 1)}
    if not set(state["raw_replies"]) <= wanted or state["status"] != "partial":
        raise RuntimeError("half-way replay left an unexpected state: "
                           f"{sorted(state['raw_replies'])} ({state['status']})")
    cache = workspace / "snapshot" / "response_cache.json"
    cached = {entry["digest"] for entry in json.loads(cache.read_text(encoding="utf-8"))}
    return len({entry["digest"] for entry in session} - cached)


def build_workspace(workload: str, seed: int, workspace: Path) -> None:
    """Write every input of ``workload`` into an empty ``workspace`` directory."""
    workspace.mkdir(parents=True)
    if workload == SAMPLE:
        for path in SAMPLES_DIR.iterdir():
            shutil.copy2(path, workspace / path.name)
        expected = dict(SAMPLE_EXPECTED)
    else:
        expected = write_synthetic(workload, seed, workspace)
    with inside(workspace):
        expected["resume_missing"] = make_snapshot(workspace)
    (workspace / "expect.json").write_text(json.dumps(expected, indent=2) + "\n",
                                           encoding="utf-8")
