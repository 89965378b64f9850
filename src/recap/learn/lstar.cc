#include "recap/learn/lstar.hh"

#include <algorithm>
#include <span>

#include "recap/common/error.hh"
#include "recap/common/parallel.hh"
#include "recap/common/rng.hh"

namespace recap::learn
{

namespace
{

/** u · v[from:]. */
Word
spliced(const Word& u, const Word& v, std::size_t from)
{
    Word word = u;
    word.insert(word.end(), v.begin() + from, v.end());
    return word;
}

/**
 * Appends the concrete blocks (1-based) of learner word @p word to
 * @p out; see LStarLearner::concretize().
 */
void
appendConcrete(std::span<const Symbol> word, SymbolSemantics semantics,
               unsigned alphabet, std::vector<Symbol>& out)
{
    if (semantics == SymbolSemantics::kConcreteBlocks) {
        for (const Symbol symbol : word)
            out.push_back(symbol + 1);
        return;
    }

    // Recency roles: symbol s < alphabet-1 names the (s+1)-th most
    // recently accessed distinct block of the word so far; the last
    // symbol (and any rank beyond the current distinct count) names
    // a fresh block. Block ids are handed out from 1 upward in order
    // of first appearance, so equal role words instantiate to equal
    // concrete words.
    std::vector<Symbol> recency; // most recent first
    Symbol nextFresh = 1;
    for (const Symbol symbol : word) {
        Symbol block;
        if (symbol + 1 < alphabet &&
            static_cast<std::size_t>(symbol) < recency.size()) {
            block = recency[symbol];
            recency.erase(recency.begin() + symbol);
        } else {
            block = nextFresh++;
        }
        recency.insert(recency.begin(), block);
        out.push_back(block);
    }
}

} // namespace

LStarLearner::LStarLearner(Teacher& teacher,
                           const LearnOptions& options)
    : teacher_(teacher), options_(options),
      alphabet_(options.alphabet != 0 ? options.alphabet
                                      : teacher.ways() + 1),
      table_(alphabet_)
{
    require(alphabet_ >= 2, "LStarLearner: alphabet too small");
}

void
LStarLearner::setReference(const MealyMachine& reference)
{
    require(reference.alphabet() == alphabet_,
            "LStarLearner::setReference: alphabet mismatch");
    reference_ = reference;
}

Word
LStarLearner::concretize(const Word& word, SymbolSemantics semantics,
                         unsigned alphabet)
{
    Word concrete;
    appendConcrete(word, semantics, alphabet, concrete);
    return concrete;
}

void
LStarLearner::abstain(const std::string& reason)
{
    abstained_ = true;
    if (!diagnostics_.empty())
        diagnostics_ += "; ";
    diagnostics_ += reason;
}

bool
LStarLearner::ask(const std::vector<Word>& words)
{
    return ask(words.size(),
               [&](std::size_t w, Word& word) { word = words[w]; });
}

bool
LStarLearner::ask(std::size_t count, const WordSource& wordAt)
{
    if (count == 0)
        return true;
    if (teacher_.wordsAsked() + count > options_.maxWords) {
        abstain("membership budget exhausted (" +
                std::to_string(options_.maxWords) + " words)");
        return false;
    }

    // The words go to the teacher concretized and laid end to end;
    // they are generated again to be recorded, so no copy of the
    // batch is kept on this side.
    Word word;
    std::vector<uint32_t> ends(count);
    TeacherAnswers answers;
    {
        std::vector<Symbol> symbols;
        for (std::size_t w = 0; w < count; ++w) {
            wordAt(w, word);
            require(!word.empty(), "LStarLearner: empty word");
            appendConcrete(word, options_.semantics, alphabet_, symbols);
            ensure(symbols.size() < UINT32_MAX,
                   "LStarLearner: batch of 2^32 - 1 symbols or more");
            ends[w] = static_cast<uint32_t>(symbols.size());
        }
        const std::size_t total = symbols.size();
        answers = teacher_.answer(std::move(symbols), ends);
        ensure(answers.outputs.size() == total &&
                   answers.determined.size() == count &&
                   answers.confidence.size() == count,
               "LStarLearner: teacher answer count mismatch");
    }

    const std::span<const uint8_t> outputs = answers.outputs;
    for (std::size_t w = 0; w < count; ++w) {
        teacherConfidence_ =
            std::min(teacherConfidence_, answers.confidence[w]);
        const std::size_t begin = w == 0 ? 0 : ends[w - 1];
        if (answers.determined[w] == 0) {
            abstain("teacher answer without quorum (word length " +
                    std::to_string(ends[w] - begin) + ")");
            return false;
        }
        if (answers.confidence[w] < options_.minConfidence) {
            abstain("teacher confidence below threshold");
            return false;
        }
        wordAt(w, word);
        const PrefixStore::Recording recording = table_.store().record(
            word, outputs.subspan(begin, ends[w] - begin));
        if (!recording.consistent) {
            abstain("teacher answers are inconsistent (conflict at "
                    "prefix length " +
                    std::to_string(recording.conflictAt) +
                    "): garbled or non-deterministic target");
            return false;
        }
    }
    return true;
}

bool
LStarLearner::closeTable()
{
    for (;;) {
        if (!ask(table_.missingWords()))
            return false;
        if (table_.prefixes().size() > options_.maxStates) {
            abstain("state budget exceeded (" +
                    std::to_string(options_.maxStates) +
                    " states); policy state space too large for "
                    "this semantics");
            return false;
        }
        Word witness;
        if (table_.isClosed(&witness))
            return true;
        table_.promote(witness);
    }
}

bool
LStarLearner::processCounterexample(
    const Word& ce, const MealyMachine& hypothesis,
    const std::vector<Word>& accessWords)
{
    const std::size_t m = ce.size();
    if (m < 2) {
        // Length-1 counterexamples cannot exist: E contains every
        // single symbol and state 0 is represented by ε.
        abstain("degenerate counterexample");
        return false;
    }

    // accessString(i) = the S word representing the hypothesis state
    // reached after ce[:i].
    std::vector<unsigned> stateAfter(m);
    {
        unsigned state = 0;
        for (std::size_t i = 0; i < m; ++i) {
            state = i == 0 ? 0 : hypothesis.next(state, ce[i - 1]);
            stateAfter[i] = state;
        }
    }
    const auto dValue = [&](std::size_t i) -> int {
        const Word word = spliced(accessWords[stateAfter[i]], ce, i);
        const int known = table_.store().lookup(word);
        if (known >= 0)
            return known;
        if (!ask({word}))
            return -1;
        return table_.store().lookup(word);
    };

    // Rivest–Schapire: d(0) = SUL(ce) and d(m-1) = the hypothesis
    // prediction differ; binary-search the flip point.
    const int d0 = dValue(0);
    std::size_t lo = 0;
    std::size_t hi = m - 1;
    const int dHi = dValue(hi);
    if (d0 < 0 || dHi < 0)
        return false;
    if (d0 == dHi) {
        abstain("counterexample reduction failed (teacher drift?)");
        return false;
    }
    // Invariant: d(lo) == d0 != d(hi).
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        const int dMid = dValue(mid);
        if (dMid < 0)
            return false;
        if (dMid == d0)
            lo = mid;
        else
            hi = mid;
    }

    // The suffix ce[lo+1:] distinguishes two rows the hypothesis
    // currently merges.
    Word suffix(ce.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                ce.end());
    if (table_.addSuffix(suffix))
        return true;
    // Fallback (should not trigger): add the longest new suffix of
    // the counterexample so the loop always makes progress.
    for (std::size_t from = 0; from < m; ++from) {
        Word candidate(ce.begin() + static_cast<std::ptrdiff_t>(from),
                       ce.end());
        if (table_.addSuffix(candidate))
            return true;
    }
    abstain("counterexample yields no new suffix");
    return false;
}

std::optional<Word>
LStarLearner::findCounterexample(const MealyMachine& hypothesis,
                                 const std::vector<Word>& accessWords,
                                 unsigned round)
{
    equivalenceWords_ = 0;

    // (a) Free pass: every recorded word is evidence; a hypothesis
    // that mispredicts any of them is refuted without new queries.
    if (const auto recorded = table_.store().firstMismatch(hypothesis))
        return recorded;

    // All hypothesis-side simulation below runs through the
    // unchecked raw-table walker; symbols come from this learner's
    // own alphabet, so the elided range checks cannot fire.
    const MealyMachine::Walker walker(hypothesis);

    // Given a batch of asked words, return the shortest prefix of
    // any of them where store and hypothesis disagree.
    std::vector<bool> predicted;
    const auto scan =
        [&](const std::vector<Word>& words) -> std::optional<Word> {
        std::optional<Word> best;
        const PrefixStore& store = table_.store();
        for (const Word& word : words) {
            walker.run(word, predicted);
            uint32_t node = PrefixStore::kRoot;
            for (std::size_t i = 0; i < word.size(); ++i) {
                if (best && i + 1 >= best->size())
                    break;
                node = store.child(node, word[i]);
                ensure(node != PrefixStore::kAbsent &&
                           store.outcome(node) >= 0,
                       "equivalence word not recorded");
                if (store.outcome(node) != static_cast<int>(predicted[i])) {
                    best = Word(word.begin(), word.begin() + i + 1);
                    break;
                }
            }
        }
        return best;
    };

    // (b) Perfect oracle, when a reference machine is available.
    if (reference_) {
        const Word ce = reference_->distinguishingWord(hypothesis);
        if (ce.empty()) {
            complete_ = true;
            return std::nullopt;
        }
        if (!ask({ce}))
            return std::nullopt;
        const auto found = scan({ce});
        if (!found) {
            abstain("reference counterexample not reproduced by "
                    "teacher (mismatched reference?)");
            return std::nullopt;
        }
        return found;
    }

    // (c) Random words, one derived stream per refinement round.
    Rng rng(deriveTaskSeed(options_.seed, round));
    const unsigned maxLen = options_.randomWordLength != 0
                                ? options_.randomWordLength
                                : 4 * teacher_.ways() + 4;
    std::vector<Word> randomWords;
    randomWords.reserve(options_.randomWordsPerRound);
    for (unsigned i = 0; i < options_.randomWordsPerRound; ++i) {
        Word word(rng.nextInRange(1, maxLen));
        for (Symbol& symbol : word)
            symbol = static_cast<Symbol>(rng.nextBelow(alphabet_));
        randomWords.push_back(std::move(word));
    }
    if (!ask(randomWords))
        return std::nullopt;
    if (auto found = scan(randomWords))
        return found;
    equivalenceWords_ += randomWords.size();

    // (d) Bounded W-method: transition cover x middles up to the
    // depth x the table's distinguishing suffixes. Complete whenever
    // the true machine has at most states + depth states.
    std::vector<Word> middles{{}};
    for (unsigned d = 0; d < options_.wMethodDepth; ++d) {
        std::vector<Word> grown;
        for (const Word& mid : middles) {
            if (mid.size() != d)
                continue;
            for (Symbol a = 0; a < alphabet_; ++a) {
                Word next = mid;
                next.push_back(a);
                grown.push_back(std::move(next));
            }
        }
        middles.insert(middles.end(), grown.begin(), grown.end());
    }
    const uint64_t suiteSize =
        static_cast<uint64_t>(accessWords.size()) * (1 + alphabet_) *
        middles.size() * table_.suffixes().size();
    if (suiteSize > options_.wMethodMaxWords) {
        // Too large to run; random testing remains the only
        // evidence. Flag it so reports stay honest about how weakly
        // the final hypothesis was tested.
        if (diagnostics_.find("W-method skipped") ==
            std::string::npos) {
            if (!diagnostics_.empty())
                diagnostics_ += "; ";
            diagnostics_ += "W-method skipped (suite of " +
                            std::to_string(suiteSize) +
                            " words exceeds bound)";
        }
        return std::nullopt;
    }
    // Suite word i is access · a · middle · suffix (a = alphabet_
    // standing for no symbol), numbered suffix fastest. The suite can
    // run to millions of symbols, so its words are generated where
    // they are needed instead of stored.
    const std::vector<Word>& suffixes = table_.suffixes();
    const auto suiteWord = [&](std::size_t i, Word& word) {
        const Word& e = suffixes[i % suffixes.size()];
        i /= suffixes.size();
        const Word& mid = middles[i % middles.size()];
        i /= middles.size();
        const auto a = static_cast<Symbol>(i % (1 + alphabet_));
        word = accessWords[i / (1 + alphabet_)];
        if (a < alphabet_)
            word.push_back(a);
        word.insert(word.end(), mid.begin(), mid.end());
        word.insert(word.end(), e.begin(), e.end());
    };

    // Hypothesis-side predictions run under the deterministic
    // parallel engine; the SUL side is one prefix-shared batch.
    std::vector<uint8_t> suitePredicted(suiteSize);
    parallelFor(suiteSize, options_.numThreads, [&](std::size_t i) {
        Word word;
        suiteWord(i, word);
        suitePredicted[i] = walker.lastOutput(word) ? 1 : 0;
    });
    if (!ask(suiteSize, suiteWord))
        return std::nullopt;
    std::optional<Word> best;
    Word word;
    for (std::size_t i = 0; i < suiteSize; ++i) {
        suiteWord(i, word);
        const int actual = table_.store().lookup(word);
        ensure(actual >= 0, "W-method word not recorded");
        if (actual != suitePredicted[i] &&
            (!best || word.size() < best->size())) {
            best = word;
        }
    }
    if (best) {
        // Shorten to the first position where outputs diverge.
        return scan({*best});
    }
    equivalenceWords_ += suiteSize;
    return std::nullopt;
}

LearnResult
LStarLearner::run()
{
    LearnResult result;
    result.semantics = options_.semantics;

    MealyMachine learned;
    std::vector<Word> accessWords;
    unsigned refinements = 0;
    bool converged = false;

    for (unsigned round = 0;; ++round) {
        if (round >= options_.maxRounds) {
            abstain("refinement budget exhausted");
            break;
        }
        if (!closeTable())
            break;
        MealyMachine hypothesis = table_.buildHypothesis(&accessWords);
        if (hypothesis.numStates() > options_.maxStates) {
            abstain("state budget exceeded");
            break;
        }
        const std::optional<Word> ce =
            findCounterexample(hypothesis, accessWords, round);
        if (abstained_)
            break;
        if (!ce) {
            learned = std::move(hypothesis);
            converged = true;
            break;
        }
        if (!processCounterexample(*ce, hypothesis, accessWords))
            break;
        ++refinements;
    }

    result.membershipWords = teacher_.wordsAsked();
    result.accessesUsed = teacher_.accessesUsed();
    result.experimentsUsed = teacher_.experimentsUsed();
    result.refinements = refinements;
    result.suffixCount =
        static_cast<unsigned>(table_.suffixes().size());
    result.teacherConfidence = teacherConfidence_;
    result.diagnostics = diagnostics_;
    if (converged) {
        result.outcome = LearnOutcome::kLearned;
        result.machine = std::move(learned);
        result.states = result.machine.numStates();
        result.equivalenceWords = equivalenceWords_;
        result.equivalenceConfidence =
            complete_ ? 1.0
                      : 1.0 - 1.0 / (1.0 + static_cast<double>(
                                               equivalenceWords_));
    }
    return result;
}

} // namespace recap::learn
