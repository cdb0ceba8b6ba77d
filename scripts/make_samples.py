#!/usr/bin/env python3
"""Regenerate the shipped sample data set under src/thematica/samples/.

The sample set is a self-contained, fully offline demonstration corpus:

* transcript.txt      - a 16-page synthetic migration interview (160 paragraphs)
* session.json        - the response cache of a run: one reply per request, in order
* coder1.csv          - first human coder's table (69 codes, 23 themes)
* coder2.csv          - second human coder's table (102 codes, 26 themes)
* alias_map.csv       - reviewer-confirmed label correspondences
* paper_reference.json - published reference values for the comparison report
* run_config.json     - a ready-to-run CLI configuration

Every supporting quote in the recorded replies is planted verbatim in the
transcript on its cited page, so a replay run traces every code at the
Exact level.  The script rebuilds everything from the literals below, then
replays the full pipeline twice and cross-checks all the headline numbers
(59 codes, 15 emerging labels, 4 themes, 67 similar human codes, 104
merged codes, 42 consensus/model pairs) before declaring success.

Run from the repository root:  python3 scripts/make_samples.py
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

from thematica.cli import _consensus_codebook
from thematica.codebook import (
    ALIAS_MAP,
    Matcher,
    load_alias_map,
    load_human_codebook,
    match_codes,
    merge_codebooks,
)
from thematica.corpus import load_corpus
from thematica.gateway import ModelConfig, ReplayTransport, load_fixture, save_fixture
from thematica.pipeline import load_artifact, run_analysis
from thematica.promptkit import StudyFocus
from thematica.textnorm import label_key
from thematica.trace import EXACT

SAMPLES_DIR = Path(__file__).resolve().parents[1] / "src" / "thematica" / "samples"

FOCUS = StudyFocus(
    focus_description=(
        "the migration experiences of nurses and midwives from developing "
        "countries to developed countries"
    ),
    research_question=(
        "What are the migration experiences of nurses and midwives from "
        "developing countries to developed countries?"
    ),
)

# One entry per extracted code: (page, label, supporting quote).  The quote
# is planted verbatim on that transcript page.
CODES: tuple[tuple[int, str, str], ...] = (
    (1, "Academic Background of Researcher",
     "My name is Mary, a first year Mphil midwifery student at the University of Ghana."),

    (2, "Confidentiality Assurance",
     "So this interview is purely for academic purposes, and so whatever you would say "
     "would just be within the academic space. Your name and your identity will not be revealed."),
    (2, "Permission for Participation",
     "So, do I still have your permission to start with the interview."),
    (2, "Migration Focus",
     "As I spoke to you earlier on, today our interview is going to be about migration, "
     "I'll basically be asking for the reasons that informed your decision to go to the UK, "
     "the experiences that you've gotten so far, and basically the differences, or the "
     "similarities between the healthcare system that you were practicing here in Ghana "
     "and that of the UK."),

    (3, "Accidental Career Discovery",
     "I chanced on midwifery and I fell in love with it."),
    (3, "Influence of Childhood Experience",
     "I had opportunity to see a traditional birth attendant doing a delivery for a lady."),

    (4, "Shift in Career Aspiration",
     "Initially I wanted to be a general nurse, but along the line my heart shifted towards midwifery."),
    (4, "Family Influence on Career Choice",
     "My mother kept telling me that caring for women in labour was a noble calling, and that stayed with me."),
    (4, "Decision to Pursue Midwifery",
     "After senior high school I made up my mind to pursue midwifery as my first choice."),
    (4, "Successful Admission and Career Fulfillment",
     "When the admission letter came, I knew I had found the work I was meant to do."),

    (5, "Curiosity-driven Migration",
     "Part of me just wanted to see how midwifery was done on the other side, I was curious about everything."),
    (5, "Non-financial Motivation",
     "It was never really about the money for me, I wanted the experience more than the salary."),
    (5, "Peer Influence on Migration Decision",
     "Most of my course mates had already left, and hearing their stories pushed me to also consider going."),
    (5, "Motivation Through Social Support",
     "My husband told me, go and try, we will manage, and that encouragement settled my mind."),

    (6, "Motivation Beyond Financial Gain",
     "Even if they paid me the same thing here, I would still have gone, because growth is more than a payslip."),
    (6, "Long Wait Times for Professional Advancement",
     "In Ghana you can wait five good years before anyone even looks at your promotion letter."),
    (6, "Delayed Professional Advancement in Home Country",
     "My colleagues who stayed are still where I left them, no movement, no progression."),
    (6, "Financial Challenges in Professional Development",
     "Every course you want to do, you pay from your own pocket, and the pocket is empty."),

    (7, "Merit-based Opportunity in the UK",
     "Over there, if you can do the work, they give you the chance, it does not matter how long you have been around."),
    (7, "Direct Support for Professional Growth in the UK",
     "My trust paid for my mentorship course and gave me study days on top."),
    (7, "Readiness and Relevance Over Seniority",
     "They look at whether you are ready and whether your skills are relevant, not the number of years you have sat in one office."),
    (7, "Perceived Barriers to Migration",
     "At first I thought the whole process was for rich people, that somebody like me could never make it."),

    (8, "Verification of Information",
     "Anything an agent told me, I would go and cross-check on the official website before I believed it."),
    (8, "Challenges in Accessing Reliable Resources",
     "Honestly, finding correct information was a struggle, everybody was saying something different."),
    (8, "Role of Internet in Migration Information Gathering",
     "YouTube and the nursing forums became my school, that is where I learnt every single step."),
    (8, "Certification and Testing Requirements",
     "You must pass the computer based test and the English exam before they even look at your file."),

    (9, "Certification Requirements for Migration",
     "Without the NMC registration you cannot work, so the certification comes first before anything else."),
    (9, "Self-Reliance in Documentation and Visa Process",
     "I did all the paperwork myself, no agent, I filled every form with my own hands."),
    (9, "Avoidance of Financial Burden from Agencies",
     "The agencies were charging thousands of cedis, so I decided I would not give them a pesewa."),
    (9, "Support from Partner and Employer",
     "My partner proofread my documents and my matron wrote me a very strong reference."),

    (10, "Financial Burden and Reimbursement",
     "I spent so much on the exams and the flight, though the hospital later reimbursed part of it."),
    (10, "Family Emotional Response to Migration",
     "My mother cried at the airport, she was happy for me but the separation broke her heart."),
    (10, "Challenges of Distance in Migration",
     "The distance is the hardest part, you cannot just jump on a trotro and go home when you miss them."),
    (10, "Role of Online Support Networks",
     "There is a WhatsApp group of Ghanaian nurses in the UK, and they answered my questions at every stage."),

    (11, "Initial Cultural Shock",
     "The first few weeks everything felt strange, the way people greet, the food, even how quiet the buses are."),
    (11, "Initial Climate Shock",
     "The cold hit me the moment I stepped out of the airport, I had never felt anything like it."),
    (11, "Unexpected Weather Conditions",
     "They told me about winter, but nobody prepared me for rain that falls sideways in the middle of summer."),
    (11, "Quiet and Orderly Environment",
     "Everywhere is so quiet and orderly, people queue without shouting, it really surprised me."),

    (12, "Healthcare System Accessibility and Procedures",
     "Here you must book through the GP first, you cannot just walk to the specialist like we do at home."),
    (12, "Delayed Medical Services and Payments",
     "Sometimes you wait weeks for an appointment, and the system pays the hospital, nobody is collecting cash at a window."),
    (12, "Equal Treatment in Healthcare",
     "Whether you are rich or poor, they treat you the same way in that hospital, I saw it with my own eyes."),
    (12, "Workplace Relationship Formality",
     "Even the consultants ask you to call them by their first name, yet everything is still documented formally."),

    (13, "Cultural Isolation and Loneliness",
     "There were evenings I sat alone in my room and wondered whether I had made the right choice, the loneliness was real."),
    (13, "Support System Differences",
     "At home your neighbours are your family, but there you have to build your support from scratch."),
    (13, "Adjustment and Adaptation",
     "Little by little I adjusted, I learnt the systems, and now it feels almost normal."),
    (13, "Structured Work Environment",
     "Everything has a protocol and a checklist, you always know what is expected of you on the ward."),

    (14, "Professional Development Opportunities",
     "Since I arrived I have done three funded courses, the opportunities just keep coming."),
    (14, "Career Progression Impact",
     "In two years I moved from band five to band six, something that would have taken a decade back home."),
    (14, "Financial Misestimation",
     "I thought I would be saving half my salary, but the bills here eat the money before you even see it."),

    (15, "Cultural and Dietary Adjustments",
     "I missed my kenkey and fresh fish, I had to learn to cook with what the shops there sell."),
    (15, "Increased Time Consciousness",
     "Now I plan everything with the clock, even my visits home are scheduled, the UK has changed my sense of time."),
    (15, "Personal growth and exposure",
     "It is good to travel, if you can afford it, you travel, go on holidays even while in Ghana working, "
     "but if you cannot and you think you can migrate, do it. Travelling opens your mind's eye, it exposes "
     "you to so many things, it helps you build your intelligence as well."),
    (15, "Live Life Fully and Independently",
     "So do that, as young as you are, live your life to the fullest and don't be a slave to money, "
     "I would say that again."),

    (16, "Bureaucratic Barriers in Professional Verification",
     "you know when you are doing this process and you go to the Ghana NMC, you have to pay for verification"),
    (16, "Underutilization of Skilled Workforce",
     "we have so many midwives and nurses in the house who have not been posted"),
    (16, "Lack of Professional Development Opportunities",
     "If there was a chance for everybody to develop their skills, there wouldn't be any crying about skills"),
    (16, "Mandatory Continuing Education",
     "here there are a lot of mandatory training, you have to renew your skills every year, some of them, every six months"),
    (16, "Retention vs. Mobility Conflict",
     "don't keep anybody in the country because you think that you need them, let the young people breathe, "
     "leave them to make their mistakes"),
    (16, "Desire to Return Under Improved Conditions",
     "Like I said if the country was better, a lot of people will run back home without hesitation"),
)

QUOTE = {label: quote for _, label, quote in CODES}

# Consolidated list printed after the final page; entries are model-selected
# highlights, not the full regenerated deduplication, and one is repeated.
EMERGING_LIST: tuple[str, ...] = (
    "Accidental Career Discovery",
    "Curiosity-driven migration",
    "Peer Influence on Migration Decision",
    "Delayed Professional Advancement in Home Country",
    "Peer Influence on Migration Decision",
    "Certification Requirements for Migration",
    "Financial Burden and Reimbursement",
    "Initial Climate Shock",
    "Cultural Isolation and Loneliness",
    "Career Progression Impact",
    "Financial Misestimation",
    "Cultural and Dietary Adjustments",
    "Motivation Beyond Financial Gain",
    "Bureaucratic Barriers in Professional Verification",
    "Merit-based Opportunity in the UK",
    "Structured Work Environment",
)

THEME_PREAMBLE = (
    "Based on the provided codes, several overarching themes can be identified that "
    "capture the primary ideas related to the migration experiences of nurses and "
    "midwives. These themes encompass personal motivations, professional development, "
    "cultural and social adjustments, and systemic challenges and supports. Here are "
    "the grouped themes with descriptions:"
)

THEMES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("Personal and Professional Motivations for Migration",
     ("Academic Background of Researcher",
      "Migration Focus",
      "Curiosity-driven Migration",
      "Non-financial Motivation",
      "Peer Influence on Migration Decision",
      "Motivation Through Social Support",
      "Motivation Beyond Financial Gain"),
     "This theme explores the various personal and professional reasons that motivate "
     "individuals to migrate. It includes curiosity about life and work conditions "
     "abroad, academic pursuits, peer influences, and intrinsic motivations beyond "
     "financial gains."),
    ("Ethical Considerations and Participant Engagement",
     ("Confidentiality Assurance",
      "Permission for Participation"),
     "This theme addresses the ethical foundations of the interview, emphasizing "
     "confidentiality assurances and informed consent when engaging participants."),
    ("Career Trajectory and Professional Development",
     ("Accidental Career Discovery",
      "Influence of Childhood Experience",
      "Shift in Career Aspiration",
      "Family Influence on Career Choice",
      "Decision to Pursue Midwifery",
      "Successful Admission and Career Fulfillment",
      "Long Wait Times for Professional Advancement",
      "Financial Challenges in Professional Development",
      "Merit-based Opportunity in the UK",
      "Direct Support for Professional Growth in the UK",
      "Readiness and Relevance Over Seniority",
      "Professional Development Opportunities",
      "Career Progression Impact",
      "Lack of Professional Development Opportunities",
      "Underutilization of Skilled Workforce"),
     "This theme captures the evolution of career aspirations, personal influences, "
     "and opportunities or challenges related to professional growth, both "
     "domestically and abroad."),
    ("Cultural and Social Adjustments",
     ("Initial Cultural Shock",
      "Unexpected Weather Conditions",
      "Quiet and Orderly Environment",
      "Healthcare System Accessibility and Procedures",
      "Delayed Medical Services and Payments",
      "Equal Treatment in Healthcare",
      "Workplace Relationship Formality",
      "Cultural Isolation and Loneliness",
      "Support System Differences",
      "Adjustment and Adaptation",
      "Structured Work Environment"),
     "This theme captures the cultural and social adjustments that migrant nurses and "
     "midwives experience while adapting to new environments."),
)

INTERPRETATIONS: tuple[str, ...] = (
    "This theme is central to understanding why nurses and midwives from developing "
    "countries choose to migrate to developed countries. The motivations are "
    "multifaceted, encompassing both personal and professional dimensions. Curiosity "
    "about life in different settings, influenced by academic pursuits or peer "
    "discussions, highlights a proactive approach to seeking new experiences and "
    "knowledge. This curiosity often extends beyond mere financial incentives, "
    "indicating a deeper desire for personal growth and development. The influence of "
    "peers and social support networks also plays a crucial role, as these "
    "individuals often rely on the advice and experiences of others who have migrated "
    "before them. This theme underscores the complex interplay of factors that drive "
    "migration decisions, which are not solely based on economic benefits but also on "
    "professional enrichment and personal fulfillment.",

    "This theme reflects the ethical foundation required when researching migrant "
    "nurses and midwives. Confidentiality and informed consent are crucial to trust "
    "and credibility, and the care taken at the start of the interview mirrors the "
    "professional standards these participants uphold in their own practice. Ethical "
    "engagement shapes how openly participants speak about their migration "
    "experiences and how valued they feel within professional settings.",

    "Career development emerges as a significant driver among migrating nurses and "
    "midwives, with many viewing migration as the route to advancement that home "
    "systems delay or deny. The codes trace a full arc: an accidental entry into the "
    "profession, family and childhood influences, long waits and self-funded training "
    "at home, and finally merit-based recognition and employer-funded growth abroad. "
    "The contrast between underutilized skills in the home country and structured "
    "development opportunities in the destination country illustrates how migration "
    "rewards readiness and relevance while exposing the costs of retaining talent "
    "without investing in it.",

    "Cultural and social adjustments are crucial in the migration journey of nurses "
    "and midwives. Initial cultural and climate shocks, unfamiliar healthcare "
    "procedures, new social norms, and workplace formality all demand significant "
    "adaptation. The theme underscores the need for support systems to ease "
    "transitions, and it highlights the resilience of migrant professionals as "
    "everyday strangeness gradually becomes routine.",
)

# Pages 1-16 mapped to the reply dialect used in the recorded session.
DIALECTS = {1: "d1", 2: "d2", 3: "d1", 4: "d1", 5: "d2", 6: "d3", 7: "d1",
            8: "d2", 9: "d3", 10: "d1", 11: "d2", 12: "d3", 13: "d1",
            14: "d2", 15: "d3", 16: "d3"}


def _page_codes(page: int) -> list[tuple[str, str]]:
    return [(label, quote) for p, label, quote in CODES if p == page]


def _render_d1(page: int, omit_page: frozenset[int] = frozenset()) -> str:
    lines = []
    for index, (label, quote) in enumerate(_page_codes(page), start=1):
        line = f'{index}. **{label}**: "{quote}"'
        if index not in omit_page:
            line += f" - Page {page}"
        lines.append(line)
    return "\n".join(lines)


def _render_d2(page: int) -> str:
    blocks = [
        f'Emerging Code: **{label}**\n'
        f'- Supporting Sentence: "{quote}"\n'
        f'- Page: Page {page}'
        for label, quote in _page_codes(page)
    ]
    return "\n\n".join(blocks)


def _render_d3(page: int) -> str:
    blocks = [
        f'{index}. {label}\n- "{quote}"\n- Page {page}'
        for index, (label, quote) in enumerate(_page_codes(page), start=1)
    ]
    return "\n\n".join(blocks)


def build_page_reply(page: int) -> str:
    if page == 1:
        # The model echoed the prompt cue before its single code.
        return ("Emerging Codes with Supporting Sentences and Page Number:\n\n"
                + _render_d1(1))
    if page == 3:
        # The second item came back without a page reference.
        return _render_d1(3, omit_page=frozenset({2}))
    if page == 16:
        listing = "\n".join(f"- {label}" for label in EMERGING_LIST)
        return (_render_d3(16)
                + "\n\n--- List of All Emerging Codes ---\n" + listing)
    dialect = DIALECTS[page]
    if dialect == "d1":
        return _render_d1(page)
    if dialect == "d2":
        return _render_d2(page)
    return _render_d3(page)


def build_theme_reply() -> str:
    blocks = [THEME_PREAMBLE]
    for number, (name, members, description) in enumerate(THEMES, start=1):
        bullets = "\n".join(f"- **{member}**" for member in members)
        blocks.append(f"### Theme {number}: {name}\n{bullets}\n\n"
                      f"**Description**: {description}")
    return "\n\n".join(blocks)


def build_interpretation_reply() -> str:
    blocks = ["Interpretation of Themes:"]
    for number, ((name, _, _), text) in enumerate(zip(THEMES, INTERPRETATIONS), start=1):
        blocks.append(f"Theme {number}: {name}\n\n{text}")
    return "\n\n".join(blocks)


def _quoted(label: str, lead: str = "", tail: str = "") -> str:
    """A respondent paragraph that embeds the code's quote verbatim."""
    lead_part = f"{lead} " if lead else ""
    tail_part = f" {tail}" if tail else ""
    return f"Respondent: {lead_part}{QUOTE[label]}{tail_part}"


def build_transcript_pages() -> list[list[str]]:
    """All 160 paragraphs, page by page, with every quote on its cited page."""
    q = _quoted
    pages = [
        [  # page 1: introductions
            "Interviewer: Good afternoon, and thank you so much for making time for this conversation.",
            f"Interviewer: {QUOTE['Academic Background of Researcher']} I am carrying out interviews for my thesis work this semester.",
            "Respondent: Good afternoon, Mary. It is nice to meet you, and I am glad to support your studies.",
            "Interviewer: Before anything else, may I ask how your week has been? I know the night shifts can be heavy.",
            "Respondent: The week has been busy but fine. I just finished a stretch of nights, so I am enjoying a few days off.",
            "Interviewer: I appreciate you joining from so far away. Is the connection on your side stable?",
            "Respondent: Yes, the line is clear. If it drops I will call back on the same number.",
            "Interviewer: Wonderful. I will be recording so that I can transcribe our conversation accurately afterwards.",
            "Respondent: That is okay with me. I expected that you would record it.",
            "Interviewer: Thank you. Let me first explain the purpose of the study and how your words will be used.",
        ],
        [  # page 2: consent and framing
            f"Interviewer: {QUOTE['Confidentiality Assurance']}",
            "Respondent: I understand. That is reassuring to hear, because some of what I will say touches on my workplace.",
            "Interviewer: Any detail that could identify you or your hospital will be removed from the transcript.",
            "Respondent: Thank you, that makes me comfortable to speak freely.",
            f"Interviewer: {QUOTE['Permission for Participation']}",
            "Respondent: Yes, you have my permission. We can go ahead.",
            f"Interviewer: {QUOTE['Migration Focus']}",
            "Respondent: Alright. That covers quite a journey, but I am happy to walk through it from the beginning.",
            "Interviewer: Perfect. Feel free to take your time with each answer, and we can pause whenever you need.",
            "Respondent: Understood. Let us start, before my next errand catches up with me.",
        ],
        [  # page 3: finding midwifery
            "Interviewer: To begin, tell me a little about how you came into midwifery in the first place.",
            f"Respondent: Honestly, it was not planned at all. {QUOTE['Accidental Career Discovery']}",
            "Interviewer: That is a lovely way to put it. What do you think made the love take hold?",
            "Respondent: The work itself. The first time I supported a woman through labour I knew the job had chosen me.",
            f"Respondent: Growing up in my grandmother's village, {QUOTE['Influence of Childhood Experience']} That picture never left my mind.",
            "Interviewer: So a childhood memory was already pointing you in this direction before the profession found you.",
            "Respondent: Exactly. At the time I did not even know it was called midwifery, I only knew somebody had to help.",
            "Interviewer: Did that early memory come back to you during your training?",
            "Respondent: Many times. Whenever a delivery was difficult I remembered that woman on the mat and the calm of the attendant.",
            "Interviewer: Thank you for sharing that. Let us talk about the years just before you entered the training school.",
        ],
        [  # page 4: the path into training
            "Interviewer: What were you aiming for before midwifery settled in your heart?",
            q("Shift in Career Aspiration"),
            "Interviewer: What part did your family play while you were weighing that change?",
            q("Family Influence on Career Choice"),
            "Interviewer: So when did the decision actually harden into a plan?",
            q("Decision to Pursue Midwifery"),
            "Interviewer: And how did it feel when the application finally went through?",
            q("Successful Admission and Career Fulfillment"),
            "Respondent: From that day I never looked back, even when the training was tough.",
            "Interviewer: That certainty comes through clearly. Now let us move to the question of leaving Ghana.",
        ],
        [  # page 5: motivations to migrate
            "Interviewer: When did the idea of working abroad first enter your mind?",
            q("Curiosity-driven Migration"),
            "Interviewer: Was the financial side not the main attraction, as many people assume?",
            q("Non-financial Motivation"),
            "Interviewer: What about the people around you, your colleagues and friends?",
            q("Peer Influence on Migration Decision"),
            "Interviewer: And at home, how did your household take the idea?",
            q("Motivation Through Social Support"),
            "Respondent: Once the people closest to me were behind it, the decision stopped feeling like a gamble.",
            "Interviewer: That is a strong foundation. Let us look at what was pushing from the professional side.",
        ],
        [  # page 6: professional push factors
            "Interviewer: Suppose the salary had been equal here and there, would you still have gone?",
            q("Motivation Beyond Financial Gain"),
            "Interviewer: Tell me about progression at home, how promotions actually moved.",
            q("Long Wait Times for Professional Advancement"),
            "Interviewer: Have you followed what happened to the colleagues who stayed behind?",
            q("Delayed Professional Advancement in Home Country"),
            "Interviewer: And further training, workshops, short courses, how were those funded?",
            q("Financial Challenges in Professional Development"),
            "Respondent: So you can see, it was not one thing, it was the whole ladder that was broken.",
            "Interviewer: A blocked ladder at home. Let us compare that with what you found on the other side.",
        ],
        [  # page 7: the pull of the UK
            "Interviewer: What did the UK system offer that Ghana was not offering you?",
            q("Merit-based Opportunity in the UK"),
            "Interviewer: Can you give me a concrete example from your own experience?",
            q("Direct Support for Professional Growth in the UK"),
            "Interviewer: How do they decide who moves up, if not years of service?",
            q("Readiness and Relevance Over Seniority"),
            "Interviewer: Before you left, did the process itself ever look impossible?",
            q("Perceived Barriers to Migration"),
            "Respondent: It took one brave colleague to show me the barrier was mostly in my head.",
            "Interviewer: Let us stay with that preparation period. How did you gather your information?",
        ],
        [  # page 8: gathering information
            "Interviewer: There are many rumours around migration. How did you separate fact from noise?",
            q("Verification of Information"),
            "Interviewer: Was reliable guidance easy to come by at that time?",
            q("Challenges in Accessing Reliable Resources"),
            "Interviewer: Where did you finally find the answers you trusted?",
            q("Role of Internet in Migration Information Gathering"),
            "Interviewer: And what were the formal hurdles you discovered you had to clear?",
            q("Certification and Testing Requirements"),
            "Respondent: Once I wrote the requirements down as a checklist, the mountain became a staircase.",
            "Interviewer: A staircase you climbed alone? Tell me about the paperwork stage.",
        ],
        [  # page 9: paperwork and registration
            "Interviewer: Which requirement mattered most in the end?",
            q("Certification Requirements for Migration"),
            "Interviewer: Did you use an agency for the documentation?",
            q("Self-Reliance in Documentation and Visa Process"),
            "Interviewer: That is unusual. What made you refuse the agents?",
            q("Avoidance of Financial Burden from Agencies"),
            "Interviewer: Was there anyone who helped you through those forms?",
            q("Support from Partner and Employer"),
            "Respondent: Between the two of them, every document went out correct on the first try.",
            "Interviewer: Even without agents, moving a life across continents costs money. How did you manage?",
        ],
        [  # page 10: costs and goodbyes
            "Interviewer: Walk me through the financial side of the move.",
            q("Financial Burden and Reimbursement"),
            "Interviewer: And the day you left, what was that like for your family?",
            q("Family Emotional Response to Migration"),
            "Interviewer: How has the separation been since then?",
            q("Challenges of Distance in Migration"),
            "Interviewer: Who did you lean on during those first months away?",
            q("Role of Online Support Networks"),
            "Respondent: Strangers in that group became sisters, some I have still never met in person.",
            "Interviewer: Let us talk about the arrival itself. What greeted you when you landed?",
        ],
        [  # page 11: first shocks
            "Interviewer: What was your very first impression stepping into the country?",
            q("Initial Cultural Shock"),
            "Interviewer: And the weather everyone warns about?",
            q("Initial Climate Shock"),
            "Respondent: " + QUOTE["Unexpected Weather Conditions"] + " I laughed because no jacket I owned was ready for that.",
            "Interviewer: Beyond the cold, what struck you about daily life?",
            q("Quiet and Orderly Environment"),
            "Respondent: For weeks I kept waiting for the noise of home, and it simply never came.",
            "Interviewer: Did that quietness feel peaceful or lonely at that stage?",
            "Respondent: At first peaceful, later lonely, but we will come to that part of the story.",
        ],
        [  # page 12: the healthcare system
            "Interviewer: As a patient yourself now, how different is the healthcare system?",
            q("Healthcare System Accessibility and Procedures"),
            "Interviewer: How does the payment side compare with Ghana?",
            q("Delayed Medical Services and Payments"),
            "Interviewer: What impressed you most about the care you observed?",
            q("Equal Treatment in Healthcare"),
            "Interviewer: And inside the workplace, how do colleagues relate to each other?",
            q("Workplace Relationship Formality"),
            "Respondent: It took me months to call my consultant by his first name without flinching.",
            "Interviewer: Those small habits carry a lot of culture. How was the social side of settling in?",
        ],
        [  # page 13: loneliness and adjustment
            "Interviewer: You mentioned loneliness earlier. Can you take me back to that period?",
            q("Cultural Isolation and Loneliness"),
            "Interviewer: What made the isolation sharper than you expected?",
            q("Support System Differences"),
            "Interviewer: And how did you come out of that season?",
            q("Adjustment and Adaptation"),
            "Interviewer: Did the hospital routines help or add to the strain?",
            q("Structured Work Environment"),
            "Respondent: Strangely, the structure steadied me. When life outside was confusing, the ward made sense.",
            "Interviewer: Let us turn to your career since the move. Has the promise been kept?",
        ],
        [  # page 14: growth delivered
            "Interviewer: Professionally, has the UK delivered what you hoped for?",
            "Respondent: On that front I have no complaints at all, the promise has been kept and more.",
            q("Professional Development Opportunities"),
            "Interviewer: And your grade, has it moved since you arrived?",
            q("Career Progression Impact"),
            "Interviewer: What about the financial picture, is it what you projected from Ghana?",
            q("Financial Misestimation"),
            "Respondent: I tell my sisters, calculate with the bills included, not just the salary they announce.",
            "Interviewer: That is honest accounting. Outside work, how has daily living treated you?",
            "Respondent: Daily living has its own syllabus, and I am still a student of it.",
        ],
        [  # page 15: life lessons and advice
            "Interviewer: What everyday adjustments have stayed with you?",
            q("Cultural and Dietary Adjustments"),
            "Interviewer: Has the move changed you in ways people at home notice?",
            q("Increased Time Consciousness"),
            "Respondent: My friends say I have become too British with my diary, and maybe they are right.",
            "Interviewer: Looking back, what would you tell a young midwife weighing this journey?",
            q("Personal growth and exposure"),
            "Interviewer: Any final word for the ones still saving and planning?",
            q("Live Life Fully and Independently"),
            "Respondent: Money will come and go, but the years of your youth pass only once.",
        ],
        [  # page 16: fixing the system back home
            "Interviewer: Before we close, what should change in Ghana's own processes?",
            q("Bureaucratic Barriers in Professional Verification", lead="Start with the verification office itself,"),
            "Respondent: " + QUOTE["Underutilization of Skilled Workforce"] + " That is the painful part, trained hands sitting at home.",
            "Interviewer: So the shortage is not of people but of postings and investment?",
            q("Lack of Professional Development Opportunities", lead="Exactly."),
            "Respondent: " + QUOTE["Mandatory Continuing Education"] + " Ghana could copy that tomorrow if it wanted.",
            "Interviewer: Some argue the answer is to stop nurses from leaving at all. What do you say to that?",
            q("Retention vs. Mobility Conflict", lead="I disagree completely,"),
            q("Desire to Return Under Improved Conditions"),
            "Interviewer: That is a hopeful note to end on. Thank you for your time and your openness today.",
        ],
    ]
    return pages


# Human coder tables.  Each shared entry is (canonical label, coder1 label,
# coder2 label); None means that coder used the canonical wording.  Where a
# model code captured the same idea, the canonical label is the model's.
SHARED_CODES: tuple[tuple[str, str | None, str], ...] = (
    ("Work experiences before midwifery", None, "Prior work experiences"),
    ("Academic qualifications obtained", None, "Academic background and qualifications"),
    ("Accidental Career Discovery", None, "Career Midwife by chance"),
    ("Lack of career guidance", None, "Absence of career counselling"),
    ("Initial lack of interest in midwifery", None, "No early interest in midwifery"),
    ("Rediscovering passion for the profession", None, "Passion rediscovered in training"),
    ("Shift in Career Aspiration", None, "Shifting career aspirations"),
    ("Family Influence on Career Choice", None, "Family influence on career"),
    ("Decision to Pursue Midwifery", None, "Choice of midwifery as a career"),
    ("Curiosity-driven Migration", "Curiosity", "Curiosity about living abroad"),
    ("Pursuit of truth about life abroad", None, "Seeking the truth about life overseas"),
    ("Non-financial Motivation", "Non-financial motivations", "Rejecting financial motivation"),
    ("Peer Influence on Migration Decision", "Peer influence on migration decision", "Peer influence"),
    ("Motivation Beyond Financial Gain", None, "Motivation beyond money"),
    ("Long Wait Times for Professional Advancement", "Long wait for promotion", "Waiting years for advancement"),
    ("Delayed Professional Advancement in Home Country", "Delayed access to professional development", "Delayed career advancement in Ghana"),
    ("Lengthy promotion process in Ghana", None, "Slow promotion pipeline at home"),
    ("Financial Challenges in Professional Development", "Self-funded professional development", "Paying for your own training"),
    ("Merit-based Opportunity in the UK", "Merit-based opportunities", "Merit over seniority in the UK"),
    ("Direct Support for Professional Growth in the UK", "Employer support for growth", "Trust-funded development support"),
    ("Readiness and Relevance Over Seniority", None, "Skills relevance over years served"),
    ("Challenges in Accessing Reliable Resources", "Difficulty finding reliable information", "Unreliable migration information"),
    ("Role of Internet in Migration Information Gathering", "Internet as information source", "Online research for migration"),
    ("Reliance on returnee colleagues for information", None, "Information from colleagues who migrated"),
    ("Certification and Testing Requirements", "Certification and testing", "Required certification exams"),
    ("Certification Requirements for Migration", "Registration requirements for migration", "NMC registration requirement"),
    ("Booking the English proficiency test", None, "Scheduling the language test"),
    ("Self-Reliance in Documentation and Visa Process", "Doing the paperwork alone", "Self-managed visa process"),
    ("Avoidance of Financial Burden from Agencies", "Avoiding agency fees", "Refusing agency charges"),
    ("Paying registration fees in installments", None, "Installment payment of registration fees"),
    ("Financial Burden and Reimbursement", "Migration costs and reimbursement", "Upfront costs later reimbursed"),
    ("Family Emotional Response to Migration", "Family's emotional response", "Emotional farewell from family"),
    ("Mixed family reactions at departure", None, "Family's mixed feelings about leaving"),
    ("Challenges of Distance in Migration", "Distance from family", "Burden of distance from home"),
    ("Video calls to stay connected", None, "Staying close through video calls"),
    ("Role of Online Support Networks", "Online support groups", "WhatsApp support network"),
    ("Initial Cultural Shock", "Culture shock on arrival", "Initial culture shock"),
    ("Unexpected Weather Conditions", "Unexpected weather", "Unpredictable British weather"),
    ("First impressions of the airport arrival", None, "Arrival impressions at the airport"),
    ("Healthcare System Accessibility and Procedures", "Navigating the GP system", "Healthcare access procedures"),
    ("Delayed Medical Services and Payments", "Waiting times for care", "Delays in medical appointments"),
    ("Learning the ward handover style", None, "Adjusting to ward handover practices"),
    ("Struggles with the self-service checkouts", None, "Confusion at self-service checkouts"),
    ("Cultural Isolation and Loneliness", "Loneliness abroad", "Isolation and loneliness"),
    ("Support System Differences", "Different support systems", "Rebuilding support networks"),
    ("Adjustment and Adaptation", "Gradual adjustment", "Adaptation over time"),
    ("Structured Work Environment", "Structured ward routines", "Protocol-driven work environment"),
    ("Differences in patient documentation", None, "Contrasts in patient documentation"),
    ("Professional Development Opportunities", "Development opportunities in the UK", "Funded course opportunities"),
    ("Career Progression Impact", "Faster career progression", "Band progression in the UK"),
    ("Pride in passing probation", None, "Satisfaction of passing probation"),
    ("Financial Misestimation", "Overestimating savings", "Misjudging living costs"),
    ("Cost of living surprises", None, "Unexpected cost of living"),
    ("Budgeting for the first winter clothes", None, "Budgeting for winter clothing"),
    ("Cultural and Dietary Adjustments", "Dietary adjustments", "Cooking and food adjustments"),
    ("Missing national celebrations at home", None, "Absence from national celebrations"),
    ("Keeping faith practices while abroad", None, "Sustaining faith practices abroad"),
    ("Heavier workload on Ghana wards", None, "Heavier patient workload in Ghana"),
    ("Personal growth and exposure", "Personal growth through travel", "Exposure through travelling"),
    ("Live Life Fully and Independently", "Living life fully", "Advice to live fully and independently"),
    ("Advising juniors on migration timing", None, "Guidance to juniors on when to migrate"),
    ("Planning eventual return home", None, "Intentions to return home someday"),
    ("Bureaucratic Barriers in Professional Verification", "Verification bureaucracy at home", "Paying for verification at the NMC Ghana"),
    ("Underutilization of Skilled Workforce", "Unposted nurses at home", "Unemployed skilled midwives"),
    ("Lack of Professional Development Opportunities", "No development opportunities at home", "Missing skill development chances"),
    ("Desire to Return Under Improved Conditions", "Willingness to return if conditions improve", "Returning home if things improve"),
    ("Proposing fast-track verification at home", None, "Suggestion of faster verification at home"),
)

CODER1_ONLY: tuple[str, ...] = (
    "Spiritual calling to midwifery",
    "Language and accent barriers",
)

CODER2_ONLY: tuple[str, ...] = (
    "Career Exploration",
    "Career Formation",
    "Professional identity development",
    "Mentorship experiences in training",
    "Clinical placement experiences",
    "Emotional burden of midwifery work",
    "Staff shortages in Ghana",
    "Equipment limitations in local facilities",
    "Night shift challenges",
    "Patient load pressures",
    "Salary comparison between countries",
    "Remittances to family",
    "Housing search difficulties",
    "Public transport adjustment",
    "Banking and credit system differences",
    "Tax and pension understanding",
    "Registration exam preparation",
    "Objective structured clinical examination experience",
    "Induction programme experience",
    "Preceptorship support",
    "Multicultural team dynamics",
    "Communication style differences",
    "Documentation standards in the UK",
    "Technology use on the wards",
    "Patient autonomy and consent culture",
    "Safeguarding procedures",
    "Continuing professional development requirements",
    "Union membership and representation",
    "Work-life balance in the UK",
    "Annual leave and flexible rostering",
    "Weather and daylight adjustment",
    "Food shopping and meal planning",
    "Building new friendships",
    "Church community participation",
    "Homesickness coping strategies",
)

CODER1_THEMES: tuple[str, ...] = (
    "Professional background",
    "Motivation to pursue midwifery",
    "Factors that influenced migration",
    "Professional opportunities in Ghana compared with the UK",
    "Source of information about migration",
    "Challenges in accessing information",
    "Certification and additional training during migration",
    "Documentation and visa process",
    "Support during migration",
    "Family and friends reaction towards migration",
    "Support network for nurses and midwives",
    "Initial impressions about the new country",
    "Adaptation to the new healthcare system",
    "Significant challenges during the adjustment period",
    "Comparison of working conditions in home country and new country",
    "Professional development opportunities encountered",
    "Job satisfaction",
    "Life challenges during migration",
    "Impact of migration on personal life and wellbeing",
    "Family and social relationships",
    "Future plans",
    "Advice to nurses and midwives",
    "Suggestions for improving migration in Ghana",
)

CODER2_THEMES: tuple[str, ...] = (
    "Career Foundations",
    "Career Exploration Paths",
    "Career Formation Journey",
    "Factors leading to Migration",
    "Comparative Career Opportunities: Ghana vs the UK",
    "Sources of Information",
    "Navigating the Information Maze",
    "Pathways to UK Midwifery Qualification",
    "Documentation and Visa Process Support",
    "Migration Support",
    "Family and Dynamics of Migration",
    "Support Systems for Nurse and Midwife Migration",
    "First Impressions: Encountering a New Environment",
    "Adapting to the UK healthcare system",
    "Challenges during Adjustment Period",
    "Contrasting Workplace Cultures: Ghana and the UK",
    "Reality of Professional Development Opportunities",
    "Job Satisfaction in the UK",
    "Financial Realities and Job Satisfaction in the UK",
    "Impact of Migration: Adapting and Thriving",
    "Shifting Relationships: Family Bonds and Evolving Friendships",
    "Longing for Home: Future Aspirations and Sense of Belonging",
    "Migration: A Journey of Personal Growth and Informed Choices",
    "Optimising Ghana's Healthcare Workforce",
    "Overcoming Obstacles",
    "Independent Pathways to Migration",
)

# Reviewer-confirmed theme correspondences: (coder1 theme, coder2 theme).
THEME_PAIRS: tuple[tuple[str, str], ...] = (
    ("Professional background", "Career Foundations"),
    ("Factors that influenced migration", "Factors leading to Migration"),
    ("Professional opportunities in Ghana compared with the UK",
     "Comparative Career Opportunities: Ghana vs the UK"),
    ("Source of information about migration", "Sources of Information"),
    ("Challenges in accessing information", "Navigating the Information Maze"),
    ("Certification and additional training during migration",
     "Pathways to UK Midwifery Qualification"),
    ("Documentation and visa process", "Documentation and Visa Process Support"),
    ("Support during migration", "Migration Support"),
    ("Family and friends reaction towards migration", "Family and Dynamics of Migration"),
    ("Support network for nurses and midwives",
     "Support Systems for Nurse and Midwife Migration"),
    ("Initial impressions about the new country",
     "First Impressions: Encountering a New Environment"),
    ("Adaptation to the new healthcare system", "Adapting to the UK healthcare system"),
    ("Significant challenges during the adjustment period",
     "Challenges during Adjustment Period"),
    ("Comparison of working conditions in home country and new country",
     "Contrasting Workplace Cultures: Ghana and the UK"),
    ("Professional development opportunities encountered",
     "Reality of Professional Development Opportunities"),
)

PAPER_REFERENCE = {
    "table1": {
        "coder_1_codes": 69,
        "coder_2_codes": 102,
        "similar_codes": 67,
        "merged_codes": 106,
    },
    "table2": {
        "coder_1_themes": 23,
        "coder_2_themes": 26,
        "similar_themes": 15,
        "coder_1_overlap_pct": 65.22,
        "coder_2_overlap_pct": 57.69,
    },
    "table4": {
        "human_codes": 67,
        "genai_codes": 59,
        "total": 126,
        "human_share_pct": 53.17,
        "genai_share_pct": 46.83,
        "percentage_difference": 11.94,
        "percentage_similarity": 88.06,
        "similar_count": 118,
    },
    "table6": {
        "genai_themes": 4,
        "genai_share_pct": 21.05,
        "human_themes": 15,
        "human_share_pct": 78.95,
        "emerging_list_pct": 100.0,
    },
}

RUN_CONFIG = {
    "input": "transcript.txt",
    "page_size": 10,
    "focus_description": FOCUS.focus_description,
    "research_question": FOCUS.research_question,
    "transport": "replay",
    "fixture": "session.json",
    "output_dir": "out",
    "matcher": "alias_map",
    "alias_map": "alias_map.csv",
}


def coder1_labels() -> list[str]:
    return [first or canonical for canonical, first, _ in SHARED_CODES] + list(CODER1_ONLY)


def coder2_labels() -> list[str]:
    return [second for _, _, second in SHARED_CODES] + list(CODER2_ONLY)


def alias_rows() -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for canonical, first, second in SHARED_CODES:
        for variant in (first, second):
            if variant is not None and label_key(variant) != label_key(canonical):
                rows.append((variant, canonical))
    for coder1_theme, coder2_theme in THEME_PAIRS:
        rows.append((coder2_theme, coder1_theme))
    return rows


def write_transcript(path: Path) -> None:
    pages = build_transcript_pages()
    for number, paragraphs in enumerate(pages, start=1):
        assert len(paragraphs) == 10, f"page {number} has {len(paragraphs)} paragraphs"
    flat = [paragraph for page in pages for paragraph in page]
    path.write_text("\n\n".join(flat) + "\n", encoding="utf-8")


class SessionTransport:
    """Answers each request of the sample session by its context."""

    kind = "replay"

    def send(self, config, messages, context=None) -> str:
        if context == "theme generation":
            return build_theme_reply()
        if context == "interpretation":
            return build_interpretation_reply()
        return build_page_reply(int(context.split()[1]))


def write_session(path: Path, corpus) -> None:
    """Save the response cache of a run over the sample, in request order."""
    with tempfile.TemporaryDirectory() as tmp:
        run_analysis(corpus, FOCUS, ModelConfig(), SessionTransport(), output_dir=tmp)
        save_fixture(path, load_fixture(Path(tmp) / "response_cache.json"))


def write_coder_csv(path: Path, coder_id: str, labels: list[str],
                    themes: tuple[str, ...], sizes: list[int]) -> None:
    assert sum(sizes) == len(labels) and len(sizes) == len(themes)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["coder_id", "theme", "code_label", "supporting_quote", "page"])
        cursor = 0
        for theme, size in zip(themes, sizes):
            for _ in range(size):
                writer.writerow([coder_id, theme, labels[cursor], "", ""])
                cursor += 1


def write_alias_map(path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["from_label", "to_label"])
        writer.writerows(alias_rows())


def validate(samples: Path) -> None:
    corpus = load_corpus(samples / "transcript.txt", page_size=10)
    assert corpus.page_count == 16 and all(page.text.count("\n") == 9 for page in corpus.pages)

    for page, label, quote in CODES:
        page_body = corpus.pages[page - 1].text
        assert quote in page_body, f"quote for {label!r} missing from page {page}"
        for other in corpus.pages:
            if other.number != page:
                assert quote not in other.text, f"quote for {label!r} leaked to page {other.number}"

    artifacts = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in ("a", "b"):
            out_dir = Path(tmp) / run
            artifact = run_analysis(corpus, FOCUS, ModelConfig(),
                                    ReplayTransport(samples / "session.json"), output_dir=out_dir)
            assert load_artifact(out_dir / "analysis.json").complete
            artifacts.append((out_dir / "analysis.json").read_bytes())
    assert artifacts[0] == artifacts[1], "replay runs are not byte-identical"

    data = json.loads(artifacts[0])
    book = data["llm_codebook"]
    assert data["status"] == "complete"
    assert len(book["codes"]) == 59, f"expected 59 codes, got {len(book['codes'])}"
    assert len(book["emerging_labels"]) == 15
    assert len(book["themes"]) == 4
    assert all(theme["interpretation"] for theme in book["themes"])
    levels = [result["level"] for result in data["trace"]["results"]]
    assert levels.count(EXACT) == 59, f"non-exact traces: {set(levels)}"

    coder1 = load_human_codebook(samples / "coder1.csv")
    coder2 = load_human_codebook(samples / "coder2.csv")
    assert len(coder1.codes) == 69 and len(coder1.themes) == 23
    assert len(coder2.codes) == 102 and len(coder2.themes) == 26

    matcher = Matcher(mode=ALIAS_MAP, alias_map=load_alias_map(samples / "alias_map.csv"))
    match = match_codes(coder1, coder2, matcher)
    assert len(match.pairs) == 67, f"expected 67 similar codes, got {len(match.pairs)}"
    _, merge_count = merge_codebooks(coder1, coder2, match)
    assert merge_count == 104, f"expected 104 merged codes, got {merge_count}"

    consensus, stats = _consensus_codebook(coder1, coder2, matcher)
    assert len(consensus.codes) == 67 and len(consensus.themes) == 15
    assert stats.similar_themes == 15

    llm_match = match_codes(consensus, artifact.llm_codebook, matcher)
    assert len(llm_match.pairs) == 42, f"expected 42 pairs, got {len(llm_match.pairs)}"

    print("validation passed:")
    print("  59 codes, 15 emerging labels, 4 themes, 4 interpretations, all Exact")
    print(f"  coder1 {len(coder1.codes)}/{len(coder1.themes)}, "
          f"coder2 {len(coder2.codes)}/{len(coder2.themes)}, "
          f"similar {len(match.pairs)}, merged {merge_count}, "
          f"similar themes {stats.similar_themes}")
    print(f"  consensus vs model pairs: {len(llm_match.pairs)}")


def main() -> int:
    SAMPLES_DIR.mkdir(parents=True, exist_ok=True)

    write_transcript(SAMPLES_DIR / "transcript.txt")
    corpus = load_corpus(SAMPLES_DIR / "transcript.txt", page_size=10)
    write_session(SAMPLES_DIR / "session.json", corpus)

    write_coder_csv(SAMPLES_DIR / "coder1.csv", "coder1", coder1_labels(),
                    CODER1_THEMES, [3] * 23)
    write_coder_csv(SAMPLES_DIR / "coder2.csv", "coder2", coder2_labels(),
                    CODER2_THEMES, [4] * 24 + [3] * 2)
    write_alias_map(SAMPLES_DIR / "alias_map.csv")

    (SAMPLES_DIR / "paper_reference.json").write_text(
        json.dumps(PAPER_REFERENCE, indent=2) + "\n", encoding="utf-8")
    (SAMPLES_DIR / "run_config.json").write_text(
        json.dumps(RUN_CONFIG, indent=2) + "\n", encoding="utf-8")

    validate(SAMPLES_DIR)
    print(f"samples written to {SAMPLES_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
