/**
 * @file
 * Configuration tests: Table-1 defaults, (N+M) presets and notation,
 * validation, and CLI override parsing.
 */

#include <gtest/gtest.h>

#include "config/cli.hh"
#include "config/machine_config.hh"
#include "config/presets.hh"
#include "util/log.hh"

using namespace ddsim;
using namespace ddsim::config;

TEST(Config, Table1Defaults)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.issueWidth, 16);
    EXPECT_EQ(cfg.robSize, 128);
    EXPECT_EQ(cfg.lsqSize, 64);
    EXPECT_EQ(cfg.lvaqSize, 64);
    EXPECT_EQ(cfg.numIntAlu, 16);
    EXPECT_EQ(cfg.numFpAlu, 16);
    EXPECT_EQ(cfg.numIntMultDiv, 4);
    EXPECT_EQ(cfg.numFpMultDiv, 4);
    EXPECT_EQ(cfg.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(cfg.l1.assoc, 2u);
    EXPECT_EQ(cfg.l1.hitLatency, 2u);
    EXPECT_EQ(cfg.l1.lineBytes, 32u);
    EXPECT_EQ(cfg.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(cfg.l2.assoc, 4u);
    EXPECT_EQ(cfg.l2.hitLatency, 12u);
    EXPECT_EQ(cfg.memLatency, 50u);
    EXPECT_EQ(cfg.lvc.sizeBytes, 2048u);
    EXPECT_EQ(cfg.lvc.assoc, 1u);
    EXPECT_EQ(cfg.lvc.hitLatency, 1u);
}

TEST(Config, CacheGeometryHelpers)
{
    CacheParams p{32 * 1024, 2, 32, 2, 4};
    EXPECT_EQ(p.numSets(), 512u);
    CacheParams lvc{2048, 1, 32, 1, 2};
    EXPECT_EQ(lvc.numSets(), 64u);
}

TEST(Presets, BaselineNotation)
{
    auto cfg = baseline(4);
    EXPECT_EQ(cfg.notation(), "(4+0)");
    EXPECT_FALSE(cfg.lvcEnabled);
    EXPECT_EQ(cfg.classifier, ClassifierKind::None);
}

TEST(Presets, DecoupledNotation)
{
    auto cfg = decoupled(3, 2);
    EXPECT_EQ(cfg.notation(), "(3+2)");
    EXPECT_TRUE(cfg.lvcEnabled);
    EXPECT_EQ(cfg.classifier, ClassifierKind::Oracle);
    EXPECT_FALSE(cfg.fastForward);
    EXPECT_EQ(cfg.combining, 1);
}

TEST(Presets, OptimizedAddsBothTechniques)
{
    auto cfg = decoupledOptimized(3, 2);
    EXPECT_TRUE(cfg.fastForward);
    EXPECT_EQ(cfg.combining, 2);
    auto cfg4 = decoupledOptimized(3, 1, 4);
    EXPECT_EQ(cfg4.combining, 4);
}

TEST(Presets, FromNotationParses)
{
    EXPECT_EQ(fromNotation("(3+2)").notation(), "(3+2)");
    EXPECT_EQ(fromNotation("4+0").notation(), "(4+0)");
    EXPECT_FALSE(fromNotation("2+0").lvcEnabled);
    EXPECT_TRUE(fromNotation("2+2").lvcEnabled);
    setQuiet(true);
    EXPECT_THROW(fromNotation("abc"), FatalError);
    EXPECT_THROW(fromNotation("0+2"), FatalError);
}

TEST(Config, DescribeMentionsKeyParameters)
{
    auto cfg = decoupledOptimized(3, 2);
    std::string d = cfg.describe();
    EXPECT_NE(d.find("(3+2)"), std::string::npos);
    EXPECT_NE(d.find("LVC 2KB"), std::string::npos);
    EXPECT_NE(d.find("fastfwd"), std::string::npos);
    EXPECT_NE(d.find("combine=2"), std::string::npos);
}

TEST(Config, ValidationCatchesBadValues)
{
    setQuiet(true);
    MachineConfig cfg;
    cfg.robSize = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = MachineConfig{};
    cfg.lvcEnabled = true;
    cfg.classifier = ClassifierKind::None;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = MachineConfig{};
    cfg.combining = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Cli, ParsesOptionsAndPositional)
{
    const char *argv[] = {"prog", "--scale=5", "--flag",
                          "positional", "--name=x y"};
    CliArgs args(5, argv);
    EXPECT_EQ(args.getInt("scale", 0), 5);
    EXPECT_TRUE(args.getBool("flag"));
    EXPECT_FALSE(args.getBool("missing"));
    EXPECT_EQ(args.get("name"), "x y");
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "positional");
    EXPECT_EQ(args.getInt("absent", 7), 7);
}

TEST(Cli, OverridesApplyToConfig)
{
    const char *argv[] = {"prog",       "--width=8",   "--rob=64",
                          "--l1.ports=3", "--lvc.size=4K",
                          "--lvc=1",    "--classifier=oracle",
                          "--fastfwd=1", "--combining=2"};
    CliArgs args(9, argv);
    MachineConfig cfg;
    applyOverrides(cfg, args);
    EXPECT_EQ(cfg.issueWidth, 8);
    EXPECT_EQ(cfg.fetchWidth, 8);
    EXPECT_EQ(cfg.robSize, 64);
    EXPECT_EQ(cfg.l1.ports, 3);
    EXPECT_EQ(cfg.lvc.sizeBytes, 4096u);
    EXPECT_TRUE(cfg.lvcEnabled);
    EXPECT_EQ(cfg.classifier, ClassifierKind::Oracle);
    EXPECT_TRUE(cfg.fastForward);
    EXPECT_EQ(cfg.combining, 2);
}

TEST(Cli, BadOverrideValueIsFatal)
{
    setQuiet(true);
    const char *argv[] = {"prog", "--rob=abc"};
    CliArgs args(2, argv);
    MachineConfig cfg;
    EXPECT_THROW(applyOverrides(cfg, args), FatalError);

    const char *argv2[] = {"prog", "--classifier=quantum"};
    CliArgs args2(2, argv2);
    EXPECT_THROW(applyOverrides(cfg, args2), FatalError);
}

TEST(Cli, RejectsUnknownOptionWithSuggestion)
{
    setQuiet(true);
    // The queried key registers; the typo'd one does not, and used to
    // silently no-op the experiment.
    const char *argv[] = {"prog", "--l1.siez=64K"};
    CliArgs args(2, argv);
    MachineConfig cfg;
    try {
        applyOverrides(cfg, args);
        FAIL() << "typo'd option was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("l1.siez"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("l1.size"),
                  std::string::npos)
            << "expected a did-you-mean suggestion: " << e.what();
    }
}

TEST(Cli, RejectUnknownHonorsQueriesAndMarkKnown)
{
    setQuiet(true);
    const char *argv[] = {"prog", "--scale=2", "--extra=1"};
    CliArgs args(3, argv);
    EXPECT_EQ(args.getInt("scale", 0), 2);
    EXPECT_THROW(args.rejectUnknown(), FatalError);
    args.markKnown("extra");
    EXPECT_NO_THROW(args.rejectUnknown());
}

TEST(Cli, PassthroughEscapeSkipsRejection)
{
    setQuiet(true);
    // Everything after a bare "--" is exempt; options before it are
    // still checked.
    const char *argv[] = {"prog", "--rob=64", "--", "--custom=7"};
    CliArgs args(4, argv);
    MachineConfig cfg;
    EXPECT_NO_THROW(applyOverrides(cfg, args));
    EXPECT_EQ(cfg.robSize, 64);
    EXPECT_EQ(args.getInt("custom", 0), 7); // still parsed normally

    const char *argv2[] = {"prog", "--rbo=64", "--", "--custom=7"};
    CliArgs args2(4, argv2);
    EXPECT_THROW(applyOverrides(cfg, args2), FatalError);
}

TEST(Config, ClassifierNames)
{
    EXPECT_STREQ(classifierName(ClassifierKind::Oracle), "oracle");
    EXPECT_STREQ(classifierName(ClassifierKind::Predictor),
                 "predictor");
    EXPECT_STREQ(classifierName(ClassifierKind::None), "none");

    // Every kind round-trips through its name.
    for (ClassifierKind k :
         {ClassifierKind::None, ClassifierKind::Annotation,
          ClassifierKind::SpBase, ClassifierKind::Oracle,
          ClassifierKind::Predictor, ClassifierKind::Replicate,
          ClassifierKind::StaticHybrid})
        EXPECT_EQ(classifierFromName(classifierName(k)), k)
            << classifierName(k);

    // A misspelling is a ConfigError on the classifier field that
    // suggests the closest name.
    try {
        classifierFromName("predictr");
        FAIL() << "a misspelt classifier must be rejected";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.field(), "classifier");
        EXPECT_NE(std::string(e.what()).find("did you mean 'predictor'"),
                  std::string::npos)
            << e.what();
    }
}
